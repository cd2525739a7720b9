#!/usr/bin/env python3
"""Schema check for SID observability artifacts (CI gate).

Validates:
  * a sid-metrics-v1 metrics/profile dump (Registry::write_json output:
    sid_cli --metrics-out, perf_detector/perf_dsp --smoke BENCH_*.json)
  * optionally, a JSONL event trace (obs::Tracer / sid_cli --trace-out),
    including embedded span records ({"span":{"id":...,"dur":...}})
  * optionally, a sid-telemetry-v1 JSONL series
    (sid_cli --telemetry-out)
  * optionally, a sid-flightrec-v1 JSONL dump (sid_cli --flightrec-out
    or a crash/quarantine auto-dump)

Usage:
    check_obs_schema.py BENCH_detector.json [--trace trace.jsonl]
        [--require-stage detector] [--min-trace-events 1]
        [--min-span-events 1]
        [--require-counter net.e2e_retries]
        [--require-histogram sid.recovery_time_s]
        [--telemetry telemetry.jsonl] [--require-series sid.alarms_raised]
        [--flightrec flightrec.jsonl [--flightrec-matches-trace]]

Exit status: 0 valid, 1 schema violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "sid-metrics-v1"
TELEMETRY_SCHEMA = "sid-telemetry-v1"
FLIGHTREC_SCHEMA = "sid-flightrec-v1"
TRACE_CATEGORIES = {"net", "node", "cluster", "sink", "energy", "fault",
                    "defense"}
SPAN_ID_HEX_LEN = 16
HISTOGRAM_KEYS = {"count", "sum", "min", "max", "mean",
                  "p50", "p95", "p99", "buckets"}


class SchemaError(Exception):
    pass


def fail(context: str, message: str):
    raise SchemaError(f"{context}: {message}")


def check_histogram(name: str, h):
    if not isinstance(h, dict):
        fail(name, "histogram is not an object")
    missing = HISTOGRAM_KEYS - h.keys()
    if missing:
        fail(name, f"missing keys {sorted(missing)}")
    if not isinstance(h["count"], int) or h["count"] < 0:
        fail(name, "count must be a non-negative integer")
    for key in ("sum", "min", "max", "mean", "p50", "p95", "p99"):
        if not isinstance(h[key], (int, float)):
            fail(name, f"{key} must be a number")
    buckets = h["buckets"]
    if not isinstance(buckets, list) or len(buckets) < 2:
        fail(name, "buckets must be a list with at least one bound + inf")
    if buckets[-1].get("le") != "inf":
        fail(name, "last bucket must have le == \"inf\"")
    prev = None
    total = 0
    for i, b in enumerate(buckets):
        if not isinstance(b, dict) or "le" not in b or "count" not in b:
            fail(name, f"bucket {i} must have le and count")
        if not isinstance(b["count"], int) or b["count"] < 0:
            fail(name, f"bucket {i} count must be a non-negative integer")
        total += b["count"]
        le = b["le"]
        if le != "inf":
            if not isinstance(le, (int, float)):
                fail(name, f"bucket {i} le must be a number or \"inf\"")
            if prev is not None and le <= prev:
                fail(name, f"bucket bounds not ascending at index {i}")
            prev = le
        elif i != len(buckets) - 1:
            fail(name, "\"inf\" bucket must be last")
    if total != h["count"]:
        fail(name, f"bucket counts sum to {total}, count says {h['count']}")
    if h["count"] > 0 and not (h["min"] <= h["p50"] <= h["max"]):
        fail(name, "p50 outside [min, max]")


def check_metrics(path: Path, require_stages: list[str],
                  require_counters: list[str] = [],
                  require_histograms: list[str] = []):
    with path.open(encoding="utf-8") as fh:
        doc = json.load(fh)
    ctx = str(path)
    if not isinstance(doc, dict):
        fail(ctx, "top level is not an object")
    if doc.get("schema") != SCHEMA:
        fail(ctx, f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(ctx, f"missing object section {section!r}")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{ctx}:{name}", "counter must be a non-negative integer")
    for name, value in doc["gauges"].items():
        if not isinstance(value, (int, float)):
            fail(f"{ctx}:{name}", "gauge must be a number")
    profile = doc.get("profile", {})
    if not isinstance(profile, dict):
        fail(ctx, "profile section must be an object")
    for name, h in list(doc["histograms"].items()) + list(profile.items()):
        check_histogram(f"{ctx}:{name}", h)
    for stage in require_stages:
        name = f"profile.{stage}_ns"
        if name not in profile:
            fail(ctx, f"required stage histogram {name!r} missing")
        if profile[name]["count"] == 0:
            fail(ctx, f"required stage histogram {name!r} is empty")
    for name in require_counters:
        if name not in doc["counters"]:
            fail(ctx, f"required counter {name!r} missing")
    for name in require_histograms:
        if name not in doc["histograms"]:
            fail(ctx, f"required histogram {name!r} missing")
    n_hist = len(doc["histograms"]) + len(profile)
    print(f"{path}: OK ({len(doc['counters'])} counters, "
          f"{len(doc['gauges'])} gauges, {n_hist} histograms)")


def check_event(ctx: str, record) -> bool:
    """Validates one trace/flight-recorder event line. Returns True when
    the event carries a span record."""
    if not isinstance(record, dict):
        fail(ctx, "event is not an object")
    if not isinstance(record.get("t"), (int, float)):
        fail(ctx, "t must be a number (simulation seconds)")
    if record.get("cat") not in TRACE_CATEGORIES:
        fail(ctx, f"unknown category {record.get('cat')!r}")
    if not isinstance(record.get("name"), str) or not record["name"]:
        fail(ctx, "name must be a non-empty string")
    if not isinstance(record.get("args"), dict):
        fail(ctx, "args must be an object")
    span = record.get("span")
    if span is None:
        return False
    if not isinstance(span, dict):
        fail(ctx, "span must be an object")
    span_id = span.get("id")
    if (not isinstance(span_id, str) or len(span_id) != SPAN_ID_HEX_LEN
            or any(c not in "0123456789abcdef" for c in span_id)):
        fail(ctx, f"span id must be {SPAN_ID_HEX_LEN} lowercase hex digits")
    dur = span.get("dur")
    if not isinstance(dur, (int, float)) or dur < 0:
        fail(ctx, "span dur must be a non-negative number")
    return True


def check_trace(path: Path, min_events: int, min_span_events: int = 0):
    n = 0
    n_spans = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            ctx = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                fail(ctx, f"not valid JSON: {err}")
            if check_event(ctx, record):
                n_spans += 1
            n += 1
    if n < min_events:
        fail(str(path), f"only {n} events, expected at least {min_events}")
    if n_spans < min_span_events:
        fail(str(path),
             f"only {n_spans} span events, expected at least "
             f"{min_span_events}")
    print(f"{path}: OK ({n} trace events, {n_spans} span records)")


def check_telemetry(path: Path, require_series: list[str]):
    with path.open(encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    ctx = str(path)
    if not lines:
        fail(ctx, "empty telemetry file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        fail(f"{ctx}:1", f"not valid JSON: {err}")
    if not isinstance(header, dict):
        fail(f"{ctx}:1", "header is not an object")
    if header.get("schema") != TELEMETRY_SCHEMA:
        fail(ctx, f"schema is {header.get('schema')!r}, "
                  f"expected {TELEMETRY_SCHEMA!r}")
    interval = header.get("interval_s")
    if not isinstance(interval, (int, float)) or interval <= 0:
        fail(ctx, "interval_s must be a positive number")
    for key in ("samples", "rows"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            fail(ctx, f"{key} must be a non-negative integer")
    for key in ("counters", "gauges"):
        names = header.get(key)
        if (not isinstance(names, list)
                or any(not isinstance(x, str) for x in names)):
            fail(ctx, f"{key} must be a list of names")
    counters = set(header["counters"])
    gauges = set(header["gauges"])
    for name in require_series:
        if name not in counters and name not in gauges:
            fail(ctx, f"required series {name!r} missing from header")
    rows = lines[1:]
    if len(rows) != header["rows"]:
        fail(ctx, f"header says {header['rows']} rows, file has {len(rows)}")
    prev_t = None
    for i, line in enumerate(rows, start=2):
        rctx = f"{ctx}:{i}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            fail(rctx, f"not valid JSON: {err}")
        if not isinstance(row, dict):
            fail(rctx, "row is not an object")
        t = row.get("t")
        if not isinstance(t, (int, float)):
            fail(rctx, "t must be a number")
        if prev_t is not None and t <= prev_t:
            fail(rctx, "row times must be strictly increasing")
        prev_t = t
        for section, names in (("counters", counters), ("gauges", gauges)):
            values = row.get(section)
            if not isinstance(values, dict):
                fail(rctx, f"{section} must be an object")
            for name, value in values.items():
                if name not in names:
                    fail(rctx, f"{section} key {name!r} not in header")
                if section == "counters":
                    if not isinstance(value, int) or value < 0:
                        fail(f"{rctx}:{name}",
                             "counter must be a non-negative integer")
                elif not isinstance(value, (int, float)):
                    fail(f"{rctx}:{name}", "gauge must be a number")
    print(f"{path}: OK ({len(rows)} telemetry rows, "
          f"{len(counters)} counters, {len(gauges)} gauges)")


def check_flightrec(path: Path):
    with path.open(encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    ctx = str(path)
    if not lines:
        fail(ctx, "empty flight-recorder file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        fail(f"{ctx}:1", f"not valid JSON: {err}")
    if not isinstance(header, dict):
        fail(f"{ctx}:1", "header is not an object")
    if header.get("schema") != FLIGHTREC_SCHEMA:
        fail(ctx, f"schema is {header.get('schema')!r}, "
                  f"expected {FLIGHTREC_SCHEMA!r}")
    if not isinstance(header.get("reason"), str) or not header["reason"]:
        fail(ctx, "reason must be a non-empty string")
    for key in ("capacity", "recorded", "events"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            fail(ctx, f"{key} must be a non-negative integer")
    events = lines[1:]
    if len(events) != header["events"]:
        fail(ctx,
             f"header says {header['events']} events, file has {len(events)}")
    if header["recorded"] < header["events"]:
        fail(ctx, "recorded total below retained event count")
    n_spans = 0
    for i, line in enumerate(events, start=2):
        ectx = f"{ctx}:{i}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            fail(ectx, f"not valid JSON: {err}")
        if check_event(ectx, record):
            n_spans += 1
    print(f"{path}: OK ({len(events)} flight-recorder events, "
          f"{n_spans} span records, reason={header['reason']!r})")


def check_flightrec_matches_trace(flightrec: Path, trace: Path):
    """The recorder dumps in the exact Tracer line format, so when it
    recorded exactly the traced events (every category on), its retained
    events are the trace's last lines, byte for byte."""
    rec_lines = flightrec.read_text(encoding="utf-8").splitlines()
    trace_lines = trace.read_text(encoding="utf-8").splitlines()
    recorded = json.loads(rec_lines[0])["recorded"]
    events = rec_lines[1:]
    if recorded != len(trace_lines):
        fail(str(flightrec),
             f"recorded {recorded} events but {trace} holds "
             f"{len(trace_lines)}; the comparison needs a trace of every "
             f"category")
    first = len(trace_lines) - len(events)
    for i, (got, want) in enumerate(zip(events, trace_lines[first:])):
        if got != want:
            fail(f"{flightrec}:{i + 2}",
                 f"differs from {trace}:{first + i + 1}")
    print(f"{flightrec}: OK (its {len(events)} events equal the last "
          f"{len(events)} lines of {trace})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", type=Path,
                        help="sid-metrics-v1 JSON dump to validate")
    parser.add_argument("--trace", type=Path,
                        help="JSONL event trace to validate as well")
    parser.add_argument("--require-stage", action="append", default=[],
                        metavar="STAGE",
                        help="require a non-empty profile.<STAGE>_ns "
                             "histogram (repeatable)")
    parser.add_argument("--min-trace-events", type=int, default=1,
                        help="minimum events the trace must contain")
    parser.add_argument("--min-span-events", type=int, default=0,
                        help="minimum span records the trace must contain")
    parser.add_argument("--telemetry", type=Path,
                        help="sid-telemetry-v1 JSONL series to validate")
    parser.add_argument("--require-series", action="append", default=[],
                        metavar="NAME",
                        help="require the telemetry header to list this "
                             "counter/gauge series (repeatable)")
    parser.add_argument("--flightrec", type=Path,
                        help="sid-flightrec-v1 JSONL dump to validate")
    parser.add_argument("--flightrec-matches-trace", action="store_true",
                        help="require the --flightrec events to equal the "
                             "last lines of --trace byte for byte; the dump's "
                             "recorded total must equal the trace's event "
                             "count (trace every category)")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="require a counter with this exact name, e.g. "
                             "the self-healing set net.e2e_retries / "
                             "net.route_repairs / net.false_suspicions "
                             "(repeatable)")
    parser.add_argument("--require-histogram", action="append", default=[],
                        metavar="NAME",
                        help="require a (sim-clock) histogram with this "
                             "name, e.g. sid.recovery_time_s (repeatable)")
    args = parser.parse_args()
    if args.flightrec_matches_trace and not (args.flightrec and args.trace):
        parser.error("--flightrec-matches-trace needs --flightrec and --trace")
    try:
        check_metrics(args.metrics, args.require_stage,
                      args.require_counter, args.require_histogram)
        if args.trace:
            check_trace(args.trace, args.min_trace_events,
                        args.min_span_events)
        if args.telemetry:
            check_telemetry(args.telemetry, args.require_series)
        if args.flightrec:
            check_flightrec(args.flightrec)
        if args.flightrec_matches_trace:
            check_flightrec_matches_trace(args.flightrec, args.trace)
    except SchemaError as err:
        print(f"schema violation — {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
