#!/usr/bin/env python3
"""Gate CI on kernel microbench throughput regressions.

Compares a fresh microbench_kernels JSON run against a committed baseline
and fails (exit 1) when any gated benchmark's rate (items_per_second: a
fixed, documented work count per call) drops more than --threshold
(default 30%). The gated families are the GEMM ones — including
BM_GemmShapes, the products at the training workloads' own shapes, and
BM_CurvatureFactor, K-FAC's symmetric curvature product — BM_InversionWork,
K-FAC's Cholesky + inverse, and BM_ExpSpan, the exp kernel under GELU and
softmax (a toolchain that stops vectorizing its loop drops its vector-tier
rows by 3-4x). A gated row the baseline has no rate for (a family that
started reporting items after the baseline was recorded) is listed and not
compared. A baseline recorded before a kernel
change can make the gate looser than its threshold for that kernel: see
tools/bench_baselines/README.md for which committed rows are stale.

BASELINE may be a single JSON file or a directory of per-runner-shape
baselines (tools/bench_baselines/*.json). Rates across different CPU
budgets is not a like-for-like comparison (the dev-container baseline is
cgroup-limited to 1 CPU), so the baseline whose context.num_cpus matches the
current run is selected.

When no committed baseline matches the runner shape, the optional
--fallback file is tried — in CI this is the previous run's JSON restored
from a per-shape actions/cache, so the gate arms itself on every runner
shape from the second run onward instead of self-skipping forever. The
fallback comparison is a run-to-run ratchet on a shared runner, so it uses
its own, more lenient --fallback-threshold (default 50%).

Only when neither source matches does the script print the shapes it saw
and exit 0 (skipped, not passed).

A second mode, --validate-notes FILE..., checks that every given bench JSON
carries a cpu_budget_note (top-level, or context.cpu_budget_note for
google-benchmark output). The note is the contract that makes committed
numbers comparable at all — it says which CPU budget produced them — so a
bench JSON without one fails CI before it can mislead anyone.

Usage: check_bench_regression.py BASELINE CURRENT
           [--threshold 0.30] [--fallback FILE] [--fallback-threshold 0.50]
       check_bench_regression.py --validate-notes FILE [FILE...]
"""

import argparse
import glob
import json
import os
import sys

# Benchmark families whose items_per_second we gate on.
GATED_FAMILIES = ("BM_GemmForward", "BM_GemmBackwardNt", "BM_GemmShapes",
                  "BM_CurvatureFactor", "BM_InversionWork", "BM_ExpSpan")


def load(path):
    with open(path) as f:
        return json.load(f)


def num_cpus(doc):
    return doc.get("context", {}).get("num_cpus")


def gated_rates(doc):
    rates = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            continue  # e.g. avx2 rows skipped on a non-AVX2 runner
        if name.startswith(GATED_FAMILIES) and "items_per_second" in bench:
            rates[name] = bench["items_per_second"]
    return rates


def pick_baseline(path, cur_cpus):
    """Returns (path, doc) of the first baseline matching cur_cpus, plus a
    description of every candidate shape for the skip message."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.json")))
    else:
        files = [path] if os.path.exists(path) else []
    shapes = []
    match = None
    for f in files:
        try:
            doc = load(f)
        except (OSError, json.JSONDecodeError) as e:
            shapes.append(f"{f} (unreadable: {e})")
            continue
        shapes.append(f"{f} (num_cpus={num_cpus(doc)})")
        if match is None and num_cpus(doc) == cur_cpus:
            match = (f, doc)
    return match, shapes


def compare(baseline, current, threshold, label):
    """Prints the per-benchmark comparison; returns (failures, compared) or
    None when there is nothing to compare."""
    base_rates = gated_rates(baseline)
    cur_rates = gated_rates(current)
    if not base_rates:
        print(f"note: {label} has no gated benchmarks to compare")
        return None
    for name in sorted(cur_rates.keys() - base_rates.keys()):
        print(f"note: '{name}' has no rate in {label}; not compared")
    failures = []
    compared = 0
    for name, base in sorted(base_rates.items()):
        cur = cur_rates.get(name)
        if cur is None:
            print(f"note: '{name}' missing from current run (renamed?)")
            continue
        compared += 1
        ratio = cur / base
        marker = "FAIL" if ratio < 1.0 - threshold else "ok"
        print(f"{marker:>4}  {name}: {base / 1e9:.2f} -> {cur / 1e9:.2f} "
              f"G items/s ({ratio:.2%} of {label})")
        if ratio < 1.0 - threshold:
            failures.append(name)
    if compared == 0:
        print(f"note: no overlapping gated benchmarks with {label}")
        return None
    return failures, compared


def validate_notes(paths):
    """Every bench JSON must say which CPU budget produced it. Returns the
    exit code: 1 when any file is missing the note or unreadable."""
    bad = []
    for path in paths:
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"FAIL  {path}: unreadable ({e})")
            bad.append(path)
            continue
        note = doc.get("cpu_budget_note") or \
            doc.get("context", {}).get("cpu_budget_note")
        if not isinstance(note, str) or not note.strip():
            print(f"FAIL  {path}: no cpu_budget_note (top-level or "
                  "context.cpu_budget_note)")
            bad.append(path)
        else:
            print(f"  ok  {path}")
    if bad:
        print(f"\n{len(bad)}/{len(paths)} bench JSONs lack a "
              "cpu_budget_note — their numbers are not comparable to "
              "anything; add the note where the file is generated")
        return 1
    print(f"\nall {len(paths)} bench JSONs carry a cpu_budget_note")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--validate-notes", nargs="+", metavar="FILE",
                    default=None,
                    help="instead of gating on throughput, check that every "
                         "given bench JSON carries a cpu_budget_note")
    ap.add_argument("baseline", nargs="?",
                    help="committed baseline JSON file, or a directory of "
                         "per-runner-shape baselines")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="max tolerated fractional rate drop vs a "
                         "committed baseline (default 0.30)")
    ap.add_argument("--fallback", default=None,
                    help="per-shape baseline from the previous CI run on "
                         "this runner shape (actions/cache); used only when "
                         "no committed baseline matches num_cpus")
    ap.add_argument("--fallback-threshold", type=float, default=0.50,
                    help="threshold for the run-to-run fallback comparison "
                         "(default 0.50 — shared runners are noisy)")
    args = ap.parse_args()

    if args.validate_notes is not None:
        if args.baseline or args.current:
            ap.error("--validate-notes takes only its own FILE list")
        return validate_notes(args.validate_notes)
    if not args.baseline or not args.current:
        ap.error("BASELINE and CURRENT are required (or use --validate-notes)")

    current = load(args.current)
    cur_cpus = num_cpus(current)

    match, shapes = pick_baseline(args.baseline, cur_cpus)
    if match is not None:
        path, baseline = match
        print(f"baseline: {path} (num_cpus={num_cpus(baseline)})")
        result = compare(baseline, current, args.threshold, "committed baseline")
        if result is None:
            print("SKIP: matching baseline had nothing comparable")
            return 0
    else:
        print(f"no committed baseline matches num_cpus={cur_cpus}; saw: "
              f"{'; '.join(shapes) if shapes else 'none'}")
        result = None
        if args.fallback and os.path.exists(args.fallback):
            fallback = load(args.fallback)
            if num_cpus(fallback) == cur_cpus:
                print(f"fallback: {args.fallback} (previous run on this "
                      f"runner shape, threshold "
                      f"{args.fallback_threshold:.0%})")
                result = compare(fallback, current, args.fallback_threshold,
                                 "previous-run fallback")
            else:
                print(f"fallback {args.fallback} has num_cpus="
                      f"{num_cpus(fallback)} — not comparable either")
        if result is None:
            print("SKIP: nothing comparable for this runner shape yet — "
                  "commit this run's JSON as "
                  f"tools/bench_baselines/BENCH_kernels_{cur_cpus}cpu.json "
                  "to arm the committed gate (see tools/bench_baselines/"
                  "README.md)")
            return 0

    failures, compared = result
    if failures:
        print(f"\n{len(failures)}/{compared} gated benchmarks regressed "
              f"beyond the threshold")
        return 1
    print(f"\nall {compared} gated benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
