#!/usr/bin/env python3
"""End-to-end SID benchmark driver (bench/e2e/README.md).

One workload, one process (the form BENCHMARK.json's command takes):

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

  Builds e2e_run from source on first use (under .bench_build/), runs the
  workload in its own process, adds the process's peak RSS, and prints the
  result as one JSON object on the last stdout line. --trace 0 reports the
  end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when an output
  check failed or nothing could be built.

Every workload in sequence:

  python3 bench/e2e/run.py [--seeds N ...] [--seconds S] [--traced]
                           [--out FILE]

  One full run per listed seed (default: 1). Prints every metric by name
  and unit, with --traced also a traced run per workload and its self-time
  table, and writes all runs to FILE (default .bench_build/e2e/
  BENCH_e2e.json). Exits 1 when any output check failed.

Compare two sets of runs:

  python3 bench/e2e/run.py --compare A.json B.json

  Per workload and end-to-end metric: median and quartiles of each set,
  and B's change against the metric's bound in BENCHMARK.json. Simulated
  outcomes of runs with the same seed must match exactly. Exits 1 on a
  regression beyond a bound or a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
EXE = BUILD_DIR / "e2e_run"
SCHEMA = "sid-bench-e2e-v1"

BUILD_TIMEOUT_S = 850
# A run must end within 180 s of starting, build excluded.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build() -> None:
    """Configures (once) and builds e2e_run; output goes to stderr."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "e2e_run",
                  "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}") from e
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError(f"build step {cmd[:2]} exited "
                             f"{proc.returncode}")
    if not EXE.exists():
        raise BenchError(f"build produced no {EXE}")


def run_e2e(workload: str, seed: int, seconds: float, trace: bool,
            spans_out: Path | None = None) -> dict:
    """Runs one workload in its own process and returns e2e_run's JSON
    result with peak_rss_mb (the process's ru_maxrss) added."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: e2e_run exited {proc.returncode} "
                         "without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload}: unreadable result: {e}") from e
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    return result


def contract_metrics(result: dict, spec: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for this mode, by name."""
    metrics = dict(result["metrics"])
    if not trace:
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}")
    return metrics


def run_contract(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    build()
    spans = BUILD_DIR / f"spans_{args.workload}.jsonl" if args.trace else None
    result = run_e2e(args.workload, args.seed, args.seconds, args.trace, spans)
    metrics = contract_metrics(result, spec, args.trace)
    for failure in result["failures"]:
        log(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


def fmt(value: float) -> str:
    return f"{value:.4g}"


def print_tiles(traced: dict) -> None:
    """Self time of each layer span, median over the traced reps; the
    columns tile the rep's wall time."""
    cols = ["setup", "front_end", "run_self", "wsn_send", "wsn_deliver",
            "glue"]
    log(f"  {'self seconds':<20}" + "".join(f"{c:>12}" for c in cols)
        + f"{'rep wall':>12}{'covered':>9}")
    for workload, result in traced.items():
        layers = result["metrics"]
        wall = layers["rep.wall_s"]["value"]
        shares = [layers[f"tile.{c}"]["value"] for c in cols]
        log(f"  {workload:<20}" + "".join(f"{s * wall:>12.4f}" for s in shares)
            + f"{wall:>12.4f}{1.0 - shares[-1]:>9.2%}")


def run_full(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()
    doc = {"schema": SCHEMA,
           "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                    "system": platform.system()},
           "seconds": seconds, "runs": []}
    ok = True
    for seed in args.seeds:
        run = {"seed": seed, "workloads": {}}
        traced = {}
        for w in spec["workloads"]:
            name = w["name"]
            log(f"== {name} seed={seed}")
            result = run_e2e(name, seed, seconds, False)
            entry = {k: result[k] for k in ("correct", "attempted", "failed",
                                            "failures", "digests",
                                            "outcomes")}
            entry["metrics"] = contract_metrics(result, spec, False)
            # e2e_run printed every other metric on its way.
            log(f"    peak_rss_mb {fmt(result['peak_rss_mb']):>29} MB")
            if args.traced:
                spans = BUILD_DIR / f"spans_{name}.jsonl"
                traced[name] = run_e2e(name, seed, seconds, True, spans)
                entry["layers"] = contract_metrics(traced[name], spec, True)
                entry["traced_correct"] = traced[name]["correct"]
                entry["traced_digests"] = traced[name]["digests"]
                entry["traced_outcomes"] = traced[name]["outcomes"]
                entry["failures"] += traced[name]["failures"]
                entry["correct"] = entry["correct"] and traced[name]["correct"]
            for failure in entry["failures"]:
                log(f"  CHECK FAILED: {failure}")
            ok = ok and entry["correct"]
            run["workloads"][name] = entry
        if traced:
            log(f"== self time per layer, seed={seed}")
            print_tiles(traced)
        doc["runs"].append(run)
    out = Path(args.out) if args.out else BUILD_DIR / "BENCH_e2e.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {out}")
    return 0 if ok else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a_path: str, b_path: str) -> int:
    spec = load_spec()
    sets = []
    for path in (a_path, b_path):
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:
            raise BenchError(f"cannot read {path}: {e}") from e
        if doc.get("schema") != SCHEMA or not doc.get("runs"):
            raise BenchError(f"{path}: not a {SCHEMA} file with runs")
        sets.append(doc["runs"])
    ok = True
    log(f"{'workload':<20} {'metric':<17} {'A median [q1, q3]':>28} "
        f"{'B median [q1, q3]':>28} {'B vs A':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            stats = []
            for runs in sets:
                values = [r["workloads"][name]["metrics"][m["name"]]["value"]
                          for r in runs if name in r["workloads"]]
                if not values:
                    raise BenchError(f"no {name} runs in one of the sets")
                stats.append(quartiles(values))
            (a1, a2, a3), (b1, b2, b3) = stats
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b2 - a2) / a2 if a2 else 0.0
            spread = max((a3 - a1) / a2 if a2 else 0.0,
                         (b3 - b1) / b2 if b2 else 0.0)
            if worse > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            elif spread > m["bound"]:
                verdict = "unresolved (spread)"
            else:
                verdict = "ok"
            a_cell = f"{fmt(a2)} [{fmt(a1)}, {fmt(a3)}]"
            b_cell = f"{fmt(b2)} [{fmt(b1)}, {fmt(b3)}]"
            change = (b2 - a2) / a2 if a2 else 0.0
            log(f"{name:<20} {m['name']:<17} {a_cell:>28} {b_cell:>28} "
                f"{change:>+8.2%} {m['bound']:>6.0%}  {verdict}")
    # Same seed, same code path: simulated outcomes must be bit-identical.
    first_by_seed = {}
    for runs in sets:
        for r in runs:
            for name, entry in r["workloads"].items():
                key = (r["seed"], name)
                digests = entry["digests"]
                ref = first_by_seed.setdefault(key, digests)
                n = min(len(ref), len(digests))
                if ref[:n] != digests[:n]:
                    log(f"MISMATCH: {name} seed {r['seed']}: sink digests "
                        "differ between runs")
                    ok = False
    log("simulated outcomes: " + ("identical for every shared seed" if ok
                                  else "see mismatches above"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is not None:
            if args.seed is None or args.seconds is None or args.trace is None:
                parser.error("--workload needs --seed, --seconds and --trace")
            if args.seed < 0 or args.seconds < 0:
                parser.error("--seed and --seconds must not be negative")
            args.trace = bool(args.trace)
            return run_contract(args)
        return run_full(args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
