#!/usr/bin/env python3
"""Fail when libpf code is reached by no non-test binary.

Usage:
  tools/check_unreached_units.py LIBPF_A BINARY [BINARY ...]
  tools/check_unreached_units.py --functions ALLOWLIST LIBPF_A BINARY ...

Build first with -ffunction-sections -fdata-sections and link with
-Wl,--gc-sections, tests off, so each binary keeps only the functions it
calls.

Unit mode (the default): a library member (one src/ translation unit) is
reached when at least one of its global text symbols survives in at least
one binary. Exit 1 lists every unreached unit.

Function mode (--functions): every global text symbol of libpf must survive
in at least one binary, unless the allowlist names it. Build at
-O0 -fno-inline for this mode: inlining removes the out-of-line copy of a
function even when binaries call it (matmul inlines matmul_acc). Exit 1
lists every unreached function with its unit, and every allowlist entry
that is now reached or names no libpf function.

The allowlist holds one entry per line: a qualified function name without
its parameter list (it covers every overload), then `# reason`. Blank lines
and lines starting with `#` are comments.

Two filters keep shared code from masking dead code:
  * only `T` symbols count — weak `W` copies of inline functions and
    template instantiations live in every member that uses them;
  * names in `std::` or carrying a `[clone ...]` suffix are dropped: a
    compiler-made clone (`Matrix::operator() [clone .part.0]`) or a
    standard-library instantiation (`std::_Hashtable`) can be global in one
    member and kept for another member's caller.
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


def qualified_name(signature):
    """`pf::Matrix::operator()(unsigned long, unsigned long) const` ->
    `pf::Matrix::operator()`: the name without its parameter list."""
    s = signature.replace("[abi:cxx11]", "")
    if s.endswith(" const"):
        s = s[:-len(" const")]
    if not s.endswith(")"):
        return s
    depth = 0
    for i in range(len(s) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(s[i], 0)
        if depth == 0:
            return s[:i]
    return s


def read_allowlist(path):
    """{qualified name: reason}; exits naming a line without a reason."""
    entries = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            if not reason.strip():
                sys.exit(f"{path}:{number}: entry without a `# reason`")
            entries[name.strip()] = reason.strip()
    return entries


def library_symbols(lib):
    """{member: set of counted global text symbols}."""
    members = {}
    for member, kind, name in nm(lib):
        symbols = members.setdefault(member, set())
        if counted(kind, name):
            symbols.add(name)
    return members


def kept_symbols(binaries):
    kept = set()
    for binary in binaries:
        kept.update(name for _, kind, name in nm(binary)
                    if counted(kind, name))
    return kept


def check_units(members, kept, n_binaries):
    unreached = sorted(unit_name(m) for m, symbols in members.items()
                       if not symbols & kept)
    if unreached:
        print(f"{len(unreached)} of {len(members)} libpf units have no "
              f"global symbol in any of {n_binaries} non-test binaries "
              "(delete them, or move test oracles to tests/support/):")
        for unit in unreached:
            print(f"  {unit}")
        return 1
    print(f"all {len(members)} libpf units are reached by "
          f"{n_binaries} non-test binaries")
    return 0


def check_functions(members, kept, n_binaries, allowlist):
    functions = {name: member for member, symbols in members.items()
                 for name in symbols}
    unreached = {}
    for name, member in functions.items():
        if name not in kept:
            unreached[name] = member
    excused = {n for n in unreached if qualified_name(n) in allowlist}
    failures = sorted((unit_name(unreached[n]), n)
                      for n in unreached if n not in excused)
    names = {qualified_name(n) for n in functions}
    missing = sorted(e for e in allowlist if e not in names)
    now_reached = sorted(e for e in allowlist if e in names and not any(
        qualified_name(n) == e for n in excused))
    status = 0
    if failures:
        print(f"{len(failures)} of {len(functions)} libpf functions are kept "
              f"by none of {n_binaries} non-test binaries (delete them, or "
              "move test oracles to tests/support/):")
        for unit, name in failures:
            print(f"  {unit}: {name}")
        status = 1
    for entry in missing:
        print(f"allowlist entry names no libpf function: {entry}")
        status = 1
    for entry in now_reached:
        print(f"allowlist entry is reached by a non-test binary: {entry}")
        status = 1
    if status == 0:
        print(f"all {len(functions)} libpf functions are reached by "
              f"{n_binaries} non-test binaries, {len(excused)} kept by "
              f"{len(allowlist)} allowlist entries")
    return status


def main(argv):
    args = argv[1:]
    allowlist = None
    if args[:1] == ["--functions"]:
        if len(args) < 2:
            sys.exit(__doc__)
        allowlist = read_allowlist(args[1])
        args = args[2:]
    if len(args) < 2:
        sys.exit(__doc__)
    lib, binaries = args[0], args[1:]
    members = library_symbols(lib)
    kept = kept_symbols(binaries)
    if allowlist is None:
        return check_units(members, kept, len(binaries))
    return check_functions(members, kept, len(binaries), allowlist)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
