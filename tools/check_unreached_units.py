#!/usr/bin/env python3
"""Fail when a libpf.a member is reached by no non-test binary.

Usage:
  tools/check_unreached_units.py LIBPF_A BINARY [BINARY ...]

Build first with -ffunction-sections -fdata-sections and link with
-Wl,--gc-sections, tests off, so each binary keeps only the functions it
calls. A library member (one src/ translation unit) is reached when at least
one of its global text symbols survives in at least one binary. Exit 1
lists every unreached unit; exit 0 prints how many members were checked.

Two filters keep shared code from masking a dead unit:
  * only `T` symbols count — weak `W` copies of inline functions and
    template instantiations live in every member that uses them;
  * names in `std::` or carrying a `[clone ...]` suffix are dropped: a
    compiler-made clone (`Matrix::operator() [clone .part.0]`) or a
    standard-library instantiation (`std::_Hashtable`) can be global in one
    member and kept for another member's caller.

The check works per unit, not per function: inlining removes the
out-of-line copy of a function even when binaries call it (matmul inlines
matmul_acc), so a per-function report would flag live code.
"""
import os
import re
import subprocess
import sys

SYMBOL = re.compile(r"^[0-9a-fA-F]+ (\w) (.+)$")
MEMBER = re.compile(r"^(\S+\.o):$")
SRC_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "src")


def counted(kind, name):
    return kind == "T" and not name.startswith("std::") and \
        "[clone " not in name


def nm(path):
    """Yields (member or None, kind, demangled name) for defined symbols."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    member = None
    for line in out.splitlines():
        m = MEMBER.match(line)
        if m:
            member = m.group(1)
            continue
        m = SYMBOL.match(line)
        if m:
            yield member, m.group(1), m.group(2)


def unit_name(member):
    """`adam.cpp.o` -> `src/optim/adam.cpp` when the source is unique."""
    source = member[:-len(".o")]
    hits = []
    for root, _, files in os.walk(SRC_ROOT):
        if source in files:
            hits.append(os.path.relpath(os.path.join(root, source),
                                        os.path.join(SRC_ROOT, "..")))
    return hits[0] if len(hits) == 1 else member


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    lib, binaries = argv[1], argv[2:]
    members = {}
    for member, kind, name in nm(lib):
        symbols = members.setdefault(member, set())
        if counted(kind, name):
            symbols.add(name)
    kept = set()
    for binary in binaries:
        kept.update(name for _, kind, name in nm(binary)
                    if counted(kind, name))
    unreached = sorted(unit_name(m) for m, symbols in members.items()
                       if not symbols & kept)
    if unreached:
        print(f"{len(unreached)} of {len(members)} libpf units have no "
              f"global symbol in any of {len(binaries)} non-test binaries "
              "(delete them, or move test oracles to tests/support/):")
        for unit in unreached:
            print(f"  {unit}")
        return 1
    print(f"all {len(members)} libpf units are reached by "
          f"{len(binaries)} non-test binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
