#!/usr/bin/env python3
"""Compare two sid-metrics-v1 bench dumps (BENCH_*.json) for perf trends.

Diffs the profile histograms of a baseline dump against a current one and
fails when a stage's central timing (mean and p50) regressed beyond the
tolerance factor. Wall-clock timings are machine- and load-dependent, so
the default tolerance is deliberately loose (5x): the gate catches
order-of-magnitude regressions — an accidentally quadratic loop, a lock
on the hot path — not single-digit-percent noise. Invocation *counts* get
a much tighter relative tolerance of their own. They repeat exactly only
where the bench pins its iteration count (perf_detector, perf_dsp and
ext_acoustic_fusion pin Iterations() on every benchmark that records a
stage); wherever google-benchmark sizes the iteration count by wall time
(fleet_sweep), the counts follow the host's speed too.

Counters and gauges are reported informationally (they change whenever
the protocol legitimately changes); pass --check-counters to gate on them
too, e.g. when comparing two runs of the same binary.

Usage:
    bench_compare.py baseline.json current.json
        [--tolerance 5.0] [--count-tolerance 0.25] [--check-counters]

Exit status: 0 within tolerance, 1 regression or schema mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "sid-metrics-v1"


def load(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} dump")
    return doc


def rel_delta(base: float, cur: float) -> float:
    """Relative change from base to cur; 0 when both are 0."""
    if base == 0.0:
        return 0.0 if cur == 0.0 else float("inf")
    return (cur - base) / base


def fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def compare_histograms(base: dict, cur: dict, tolerance: float,
                       count_tolerance: float) -> list[str]:
    failures = []
    base_hists = dict(base.get("profile", {}))
    cur_hists = dict(cur.get("profile", {}))
    for name in sorted(base_hists.keys() | cur_hists.keys()):
        if name not in cur_hists:
            failures.append(f"{name}: present in baseline, missing now")
            continue
        if name not in base_hists:
            print(f"  NEW  {name} (no baseline; not compared)")
            continue
        b, c = base_hists[name], cur_hists[name]
        count_delta = rel_delta(b["count"], c["count"])
        status = "ok"
        if abs(count_delta) > count_tolerance:
            failures.append(
                f"{name}: invocation count {b['count']} -> {c['count']} "
                f"({count_delta:+.0%}, tolerance {count_tolerance:.0%})")
            status = "FAIL"
        if b["count"] > 0 and c["count"] > 0:
            for key in ("mean", "p50"):
                ratio = c[key] / b[key] if b[key] > 0 else 1.0
                if ratio > tolerance:
                    failures.append(
                        f"{name}: {key} {fmt_ns(b[key])} -> {fmt_ns(c[key])} "
                        f"({ratio:.1f}x, tolerance {tolerance:.1f}x)")
                    status = "FAIL"
        mean_b = b.get("mean", 0.0)
        mean_c = c.get("mean", 0.0)
        print(f"  {status:<4} {name}: count {b['count']} -> {c['count']}, "
              f"mean {fmt_ns(mean_b)} -> {fmt_ns(mean_c)}")
    return failures


def compare_scalars(base: dict, cur: dict, gate: bool) -> list[str]:
    failures = []
    for section in ("counters", "gauges"):
        b = base.get(section, {})
        c = cur.get(section, {})
        for name in sorted(b.keys() | c.keys()):
            vb, vc = b.get(name), c.get(name)
            if vb == vc:
                continue
            line = f"{section[:-1]} {name}: {vb} -> {vc}"
            if gate:
                failures.append(line)
            else:
                print(f"  note {line}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--tolerance", type=float, default=5.0,
                        help="max allowed slowdown factor for mean/p50 of a "
                             "profile stage (default 5.0: machine-noise "
                             "proof, catches blowups)")
    parser.add_argument("--count-tolerance", type=float, default=0.25,
                        help="max relative change in a stage's invocation "
                             "count (workload drift; default 0.25)")
    parser.add_argument("--check-counters", action="store_true",
                        help="also fail on any counter/gauge difference "
                             "(only sensible for same-binary comparisons)")
    args = parser.parse_args()

    if args.tolerance < 1.0:
        raise SystemExit("--tolerance must be >= 1.0")
    base = load(args.baseline)
    cur = load(args.current)
    print(f"comparing {args.baseline} (baseline) vs {args.current}:")
    failures = compare_histograms(base, cur, args.tolerance,
                                  args.count_tolerance)
    failures += compare_scalars(base, cur, gate=args.check_counters)
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
