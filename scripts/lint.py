#!/usr/bin/env python3
"""Repo-invariant lint for the SID reproduction.

Enforces the discipline clang-tidy cannot express:

  rng-source        no std::random_device, rand()/srand(), ad-hoc
                    std::mt19937 seeding or wall-clock reads outside
                    src/util/rng.h — every stochastic stream must derive
                    from the single master seed (see DESIGN.md).
  pragma-once       every header starts translation with #pragma once.
  header-using      no `using namespace` at header scope.
  protocol-literal  no float/double literal in a protocol message struct
                    (src/wsn/messages.h) whose decimal text is not exactly
                    representable in binary — inexact defaults would break
                    bit-identical replay of recorded decision streams.
  raw-io            no raw std::cout/std::cerr/printf-family output in
                    src/ outside src/obs/ and src/util/table.* — library
                    code reports through the metrics registry, the event
                    tracer, or returned values, never by printing.
  oracle-liveness   no protocol code reads the global liveness oracle
                    (node_operational) or the radio's ground-truth PRR
                    outside the physical delivery layer itself
                    (src/wsn/network.*, src/wsn/radio.*). Routing,
                    clustering and fallback decisions must rely on
                    in-band evidence only: can_execute (self), beacons,
                    suspicion (suspects()), and reliable-transport
                    outcomes (kGaveUp).
  thread-funnel     no raw std::thread/std::jthread/std::async outside
                    src/util/parallel.* — all concurrency goes through
                    util::ThreadPool::parallel_for, whose contract (each
                    index runs exactly once, writes only its own slot and
                    draws from streams keyed by its own data) is what
                    keeps parallel runs bit-identical to serial
                    (DESIGN.md §5g). Ad-hoc threads would reintroduce
                    schedule-dependent behaviour the determinism suite
                    cannot pin.
  mutex-funnel      no raw std::mutex/lock_guard/unique_lock/scoped_lock/
                    shared_mutex/condition_variable outside
                    src/util/thread_annotations.h — all locking goes
                    through the annotated util::Mutex/LockGuard/CondVar
                    wrappers so Clang's -Wthread-safety capability
                    analysis sees every acquisition (DESIGN.md §5i). A
                    raw primitive would be invisible to the analysis and
                    silently un-checked.
  defense-funnel    no NeighborTable or quarantine/ledger state mutated
                    outside src/wsn/ — link beliefs and suspicion
                    verdicts are delivery-layer evidence (DESIGN.md
                    §5h). Higher layers (src/core/...) consume them
                    through read-only views (suspects, quarantine_view,
                    guard_ledger) and the quarantine listener; letting
                    protocol code poke the tables/ledgers directly would
                    bypass the admission funnel the defense audits.
  spatial-funnel    no all-pairs triangular scan (`for (j = i + 1; j < N`)
                    in src/ outside src/wsn/spatial_index.* — range and
                    neighborhood queries go through the uniform-grid
                    SpatialIndex (DESIGN.md §5l), whose grid==brute-force
                    property test keeps results byte-identical to the
                    historical O(N^2) loops. A fresh pairwise scan would
                    quietly reintroduce the quadratic wall the fleet_sweep
                    bench exists to keep down. (Tests and benches may
                    brute-force freely: they are the oracle the index is
                    checked against.)
  span-funnel       no direct Tracer::emit_span call in src/ outside
                    src/obs/ — span records are emitted through the
                    SID_SPAN macro only (obs/span.h), so the
                    SID_ENABLE_METRICS=OFF build compiles every site
                    away and the noop suite can prove it. A direct call
                    would survive the metrics-off build and re-introduce
                    tracing cost the flag promises to remove.
  engine-funnel     no `events().run_all(` (or `events_.run_all(`) on a
                    Network's global queue anywhere in src/, tests/,
                    bench/ or examples/ — a network runs only through
                    Network::run_events(), the windowed engine that
                    advances the beacon lanes and the global queue
                    together (DESIGN.md §5l). Draining the global queue
                    directly would leave every beacon lane idle. A
                    standalone EventQueue (`queue.run_all()`) stays legal.

Exit status: 0 clean, 1 violations found, 2 internal error.

A line can opt out of one rule with a trailing `// lint:allow <rule>`.
`--self-test` plants one violation per rule in a temp tree and verifies
each is caught (wired into ctest as `lint_selftest`).
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".h", ".cpp"}

# Files allowed to touch raw entropy sources: the single seed funnel.
RNG_ALLOWED = {Path("src/util/rng.h"), Path("src/util/rng.cpp")}

PROTOCOL_HEADERS = {Path("src/wsn/messages.h")}

# Library code must stay silent: only the observability layer and the
# table formatter may write to stdout/stderr. The rule covers src/ only —
# tests, benches and examples are user-facing programs.
RAW_IO_ALLOWED_PREFIXES = ("src/obs/", "src/util/table")

# The liveness/PRR oracle funnel: ground truth about other nodes (alive?
# true link PRR?) exists only inside the physical delivery layer. Tests
# and benches may consult it freely (they assert against ground truth);
# protocol code in src/ may not.
ORACLE_ALLOWED = {
    Path("src/wsn/network.h"), Path("src/wsn/network.cpp"),
    Path("src/wsn/radio.h"), Path("src/wsn/radio.cpp"),
}

ORACLE_PATTERNS = (
    re.compile(r"(?<![A-Za-z0-9_])node_operational\s*\("),
    re.compile(r"(?<![A-Za-z0-9_])prr\s*\("),
)

# The concurrency funnel: only the deterministic thread pool may spawn
# threads. (std::this_thread is fine — the pattern requires `thread` right
# after `std::`.)
THREAD_ALLOWED = {
    Path("src/util/parallel.h"), Path("src/util/parallel.cpp"),
}

THREAD_PATTERNS = (
    re.compile(r"std\s*::\s*j?thread\b"),
    re.compile(r"std\s*::\s*async\b"),
)

# The locking funnel: only the annotated wrappers may name the std
# primitives, so every lock the program takes is visible to Clang's
# capability analysis. (std::atomic is fine — lock-free state is part of
# the documented contract, not hidden from the analysis.)
MUTEX_ALLOWED = {
    Path("src/util/thread_annotations.h"),
}

MUTEX_PATTERNS = (
    re.compile(r"std\s*::\s*(?:recursive_|timed_|shared_)?mutex\b"),
    re.compile(r"std\s*::\s*(?:lock_guard|unique_lock|scoped_lock"
               r"|shared_lock)\b"),
    re.compile(r"std\s*::\s*condition_variable(?:_any)?\b"),
)

# The defense funnel: neighbor-table and quarantine/ledger state mutators
# may only be called from the delivery layer (src/wsn/). Everything in
# src/ outside it is checked; tests and benches may drive them directly.
DEFENSE_FUNNEL_PREFIX = "src/wsn/"

DEFENSE_FUNNEL_PATTERNS = (
    # NeighborTable mutators (link beliefs are delivery-layer evidence).
    re.compile(r"\.\s*(?:(?:on_beacon|on_tx_success|on_tx_failure)(?:_at)?"
               r"|boot_neighbor|sweep)\s*\("),
    # GuardLedger / quarantine-view mutators (both admission funnels:
    # accel reports/decisions and acoustic contact reports).
    re.compile(r"\.\s*(?:assess(?:_acoustic)?|apply_notice)\s*\("),
)

# The spatial funnel: production range queries go through the grid index.
# Only its own implementation may write pairwise scans; tests and benches
# are out of scope (they brute-force as the correctness/perf oracle).
SPATIAL_ALLOWED = {
    Path("src/wsn/spatial_index.h"), Path("src/wsn/spatial_index.cpp"),
}

SPATIAL_PATTERNS = (
    # The triangular inner loop of an all-pairs scan: `j` starts one past
    # another index and walks the rest of the collection.
    re.compile(r"for\s*\(\s*(?:[\w:<>]+\s+)?(\w+)\s*=\s*\w+\s*\+\s*1\s*;"
               r"\s*\1\s*<"),
)

# The span funnel: only the obs layer itself (the macro's implementation
# and its tests live there) may name Tracer::emit_span. Call sites in the
# rest of src/ must go through SID_SPAN; the macro text at a call site
# never contains `->emit_span(` pre-expansion, so the pattern only fires
# on hand-written direct calls. Tests/benches drive the API directly.
SPAN_FUNNEL_PREFIX = "src/obs/"

SPAN_FUNNEL_PATTERNS = (
    re.compile(r"(?:\.|->)\s*emit_span\s*\("),
)

# The engine funnel: a network's global queue is drained only by the
# windowed engine (Network::run_events). Applies to every linted tree;
# the pattern names the network accessor/member, so a standalone
# EventQueue's own run_all() is untouched.
ENGINE_FUNNEL_PATTERNS = (
    re.compile(r"(?<![A-Za-z0-9_])events(?:\s*\(\s*\)|_)\s*\.\s*"
               r"run_all\s*\("),
)

ALLOW_RE = re.compile(r"//\s*lint:allow\s+([a-z-]+)")

RNG_PATTERNS = (
    re.compile(r"std\s*::\s*random_device"),
    re.compile(r"(?<![A-Za-z0-9_])s?rand\s*\("),
    re.compile(r"std\s*::\s*mt19937(?:_64)?\b"),
    re.compile(r"(?<![A-Za-z0-9_])time\s*\("),  # std::time / time(NULL)
    re.compile(r"(?<![A-Za-z0-9_])gettimeofday\s*\("),
    re.compile(r"(?:system|steady|high_resolution)_clock\s*::\s*now"),
)

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")

RAW_IO_PATTERNS = (
    re.compile(r"std\s*::\s*(cout|cerr)\b"),
    # printf/fprintf/puts/fputs; the lookbehind keeps snprintf (string
    # formatting, no output) out of scope.
    re.compile(r"(?<![A-Za-z0-9_])(?:f?printf|f?puts)\s*\("),
)

FLOAT_LITERAL_RE = re.compile(
    r"(?<![\w.])(\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fF]?(?![\w.])"
)


def strip_comments_and_strings(line: str) -> str:
    """Blanks out // comments and string/char literals (single line only —
    good enough for this codebase, which has no multi-line raw strings in
    the linted dirs)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def is_exact_decimal(text: str) -> bool:
    """True when the decimal literal's value is exactly representable as an
    IEEE-754 double (e.g. 0.5, -1.0, 2.25 — but not 0.1 or 3.3)."""
    return Fraction(float(text)) == Fraction(text)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[str] = []

    def report(self, rule: str, path: Path, lineno: int, detail: str):
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{lineno}: [{rule}] {detail}")

    def lint_file(self, path: Path):
        rel = path.relative_to(self.root)
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            raise RuntimeError(f"cannot read {rel}: {err}") from err
        lines = text.splitlines()

        is_header = path.suffix == ".h"
        if is_header and "#pragma once" not in text:
            self.report("pragma-once", path, 1, "header lacks #pragma once")

        check_protocol = rel in PROTOCOL_HEADERS
        check_rng = rel not in RNG_ALLOWED
        rel_posix = rel.as_posix()
        check_raw_io = (rel_posix.startswith("src/")
                        and not rel_posix.startswith(RAW_IO_ALLOWED_PREFIXES))
        check_oracle = (rel_posix.startswith("src/")
                        and rel not in ORACLE_ALLOWED)
        check_thread = rel not in THREAD_ALLOWED
        check_mutex = rel not in MUTEX_ALLOWED
        check_defense = (rel_posix.startswith("src/")
                         and not rel_posix.startswith(DEFENSE_FUNNEL_PREFIX))
        check_span = (rel_posix.startswith("src/")
                      and not rel_posix.startswith(SPAN_FUNNEL_PREFIX))
        check_spatial = (rel_posix.startswith("src/")
                         and rel not in SPATIAL_ALLOWED)

        for lineno, raw in enumerate(lines, start=1):
            allowed = {m for m in ALLOW_RE.findall(raw)}
            code = strip_comments_and_strings(raw)

            if check_rng and "rng-source" not in allowed:
                for pat in RNG_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "rng-source", path, lineno,
                            f"forbidden entropy/wall-clock source "
                            f"'{m.group(0).strip()}' — derive randomness "
                            f"from util::Rng / derive_seed instead")
            if check_raw_io and "raw-io" not in allowed:
                for pat in RAW_IO_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "raw-io", path, lineno,
                            f"raw output '{m.group(0).strip()}' in library "
                            f"code — report via obs metrics/trace or return "
                            f"values instead")
            if check_oracle and "oracle-liveness" not in allowed:
                for pat in ORACLE_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "oracle-liveness", path, lineno,
                            f"ground-truth oracle read "
                            f"'{m.group(0).strip()}' outside the physical "
                            f"delivery layer — use can_execute/suspects/"
                            f"beacons/kGaveUp instead")
            if check_thread and "thread-funnel" not in allowed:
                for pat in THREAD_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "thread-funnel", path, lineno,
                            f"raw concurrency primitive "
                            f"'{m.group(0).strip()}' outside the "
                            f"util::ThreadPool funnel — use "
                            f"ThreadPool::parallel_for, whose per-index "
                            f"contract keeps results schedule-independent")
            if check_mutex and "mutex-funnel" not in allowed:
                for pat in MUTEX_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "mutex-funnel", path, lineno,
                            f"raw locking primitive "
                            f"'{m.group(0).strip()}' outside "
                            f"src/util/thread_annotations.h — use the "
                            f"annotated util::Mutex/LockGuard/CondVar so "
                            f"-Wthread-safety sees the acquisition")
            if check_defense and "defense-funnel" not in allowed:
                for pat in DEFENSE_FUNNEL_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "defense-funnel", path, lineno,
                            f"neighbor/quarantine state mutator "
                            f"'{m.group(0).strip()}' outside src/wsn/ — "
                            f"consume suspects()/quarantine_view()/"
                            f"guard_ledger() read-only views or the "
                            f"quarantine listener instead")
            if check_span and "span-funnel" not in allowed:
                for pat in SPAN_FUNNEL_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "span-funnel", path, lineno,
                            f"direct span emission "
                            f"'{m.group(0).strip()}' outside src/obs/ — "
                            f"use the SID_SPAN macro so the metrics-off "
                            f"build compiles the site away")
            if check_spatial and "spatial-funnel" not in allowed:
                for pat in SPATIAL_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "spatial-funnel", path, lineno,
                            f"all-pairs triangular scan "
                            f"'{m.group(0).strip()}' outside "
                            f"src/wsn/spatial_index — query the grid "
                            f"index instead (its property test pins "
                            f"byte-identity to the brute-force scan)")
            if "engine-funnel" not in allowed:
                for pat in ENGINE_FUNNEL_PATTERNS:
                    m = pat.search(code)
                    if m:
                        self.report(
                            "engine-funnel", path, lineno,
                            f"direct global-queue drain "
                            f"'{m.group(0).strip()}' — call "
                            f"Network::run_events() so the beacon lanes "
                            f"run too")
            if (is_header and "header-using" not in allowed
                    and USING_NAMESPACE_RE.search(code)):
                self.report("header-using", path, lineno,
                            "`using namespace` at header scope")
            if check_protocol and "protocol-literal" not in allowed:
                for m in FLOAT_LITERAL_RE.finditer(code):
                    if not is_exact_decimal(m.group(1)):
                        self.report(
                            "protocol-literal", path, lineno,
                            f"inexact float literal {m.group(0)} in protocol "
                            f"struct — would break bit-identical replay")

    def run(self) -> int:
        files = []
        for d in SOURCE_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in CXX_SUFFIXES and p.is_file())
        if not files:
            print("lint.py: no source files found", file=sys.stderr)
            return 2
        for f in files:
            self.lint_file(f)
        if self.violations:
            for v in self.violations:
                print(v, file=sys.stderr)
            print(f"lint.py: {len(self.violations)} violation(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"lint.py: OK ({len(files)} files clean)")
        return 0


def self_test() -> int:
    """Plants one violation per rule and asserts the linter catches it."""
    cases = {
        "rng-source": "int f() { std::random_device rd; return rd(); }\n",
        "rng-source-time": "long f() { return time(nullptr); }\n",
        "rng-source-mt19937": "std::mt19937 gen(1234);\n",
        "pragma-once": "// header without the pragma\nint x;\n",
        "header-using": "#pragma once\nusing namespace std;\n",
        "raw-io": "#include <iostream>\nvoid f() { std::cout << 1; }\n",
        "raw-io-printf": "void g() { printf(\"x\"); }\n",
        "oracle-liveness":
            "bool f() { return net.node_operational(3, t); }\n",
        "oracle-prr": "double q() { return radio.prr(35.0); }\n",
        "thread-funnel":
            "#include <thread>\nvoid f() { std::thread t([] {}); }\n",
        "thread-funnel-async":
            "#include <future>\nauto g() { return std::async([] {}); }\n",
        "mutex-funnel":
            "#include <mutex>\nstd::mutex mu;\n",
        "mutex-funnel-guard":
            "void f() { std::lock_guard<std::mutex> l(mu); }\n",
        "mutex-funnel-cv":
            "#include <condition_variable>\nstd::condition_variable cv;\n",
        "defense-funnel":
            "void f() { table.on_beacon(3, t); }\n",
        "defense-funnel-slot":
            "void f() { table.on_tx_failure_at(slot, t); }\n",
        "defense-funnel-ledger":
            "void g() { ledger.assess(msg, t); }\n",
        "defense-funnel-acoustic":
            "void h() { ledger.assess_acoustic(contact, msg, t); }\n",
        "span-funnel":
            "void f() { tracer->emit_span(cat, \"n\", t, d, id, {}); }\n",
        "spatial-funnel":
            "void f() {\n"
            "  for (std::size_t i = 0; i < n; ++i)\n"
            "    for (std::size_t j = i + 1; j < n; ++j) touch(i, j);\n"
            "}\n",
        "engine-funnel": "void f(Network& net) { net.events().run_all(); }\n",
    }
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        src = root / "src"
        src.mkdir()
        (src / "a.cpp").write_text(cases["rng-source"])
        (src / "b.cpp").write_text(cases["rng-source-time"])
        (src / "c.cpp").write_text(cases["rng-source-mt19937"])
        (src / "d.h").write_text(cases["pragma-once"])
        (src / "e.h").write_text(cases["header-using"])
        (src / "f.cpp").write_text(cases["raw-io"])
        (src / "g.cpp").write_text(cases["raw-io-printf"])
        # The observability layer itself may print (it IS the reporter).
        obs = src / "obs"
        obs.mkdir()
        (obs / "ok.cpp").write_text(cases["raw-io"])
        (src / "h.cpp").write_text(cases["oracle-liveness"])
        (src / "i.cpp").write_text(cases["oracle-prr"])
        (src / "j.cpp").write_text(cases["thread-funnel"])
        (src / "k.cpp").write_text(cases["thread-funnel-async"])
        # The thread pool itself IS the funnel: exempt.
        util_dir = src / "util"
        util_dir.mkdir()
        (util_dir / "parallel.cpp").write_text(cases["thread-funnel"])
        # std::this_thread must not trip the std::thread pattern.
        (src / "l.cpp").write_text(
            "#include <thread>\n"
            "void nap() { std::this_thread::yield(); }\n")
        # Mutex-funnel plants: raw primitives outside the annotated
        # wrapper header.
        (src / "o.cpp").write_text(cases["mutex-funnel"])
        (src / "p.cpp").write_text(cases["mutex-funnel-guard"])
        (src / "q.cpp").write_text(cases["mutex-funnel-cv"])
        # The annotated wrapper header itself IS the funnel: exempt.
        (util_dir / "thread_annotations.h").write_text(
            "#pragma once\n#include <mutex>\nstd::mutex raw;\n")
        # Defense-funnel plants: a core-layer file poking neighbor tables
        # and a guard ledger directly.
        core_dir = src / "core"
        core_dir.mkdir()
        (core_dir / "m.cpp").write_text(cases["defense-funnel"])
        (core_dir / "m2.cpp").write_text(cases["defense-funnel-slot"])
        (core_dir / "n.cpp").write_text(cases["defense-funnel-ledger"])
        (core_dir / "n2.cpp").write_text(cases["defense-funnel-acoustic"])
        # Span-funnel plant: a core-layer file calling emit_span directly;
        # the obs layer itself (the macro's home) is exempt.
        (core_dir / "r.cpp").write_text(cases["span-funnel"])
        (obs / "span_ok.cpp").write_text(cases["span-funnel"])
        # Spatial-funnel plant: a core-layer all-pairs scan; the index's
        # own implementation is exempt.
        (core_dir / "s.cpp").write_text(cases["spatial-funnel"])
        # Engine-funnel plants: a test draining a network's global queue
        # directly is caught; a standalone EventQueue's run_all() and an
        # explicit lint:allow are exempt.
        tests_dir = root / "tests"
        tests_dir.mkdir()
        (tests_dir / "t.cpp").write_text(cases["engine-funnel"])
        (tests_dir / "queue_ok.cpp").write_text(
            "void f(EventQueue& queue) { queue.run_all(); }\n"
            "void g(Network& net) {\n"
            "  net.events().run_all();  // lint:allow engine-funnel\n"
            "}\n")
        # A protocol struct with an inexact default.
        wsn = src / "wsn"
        wsn.mkdir()
        (wsn / "messages.h").write_text(
            "#pragma once\nstruct R { double gain = 3.3; };\n")
        # The delivery layer itself IS the oracle: exempt.
        (wsn / "network.cpp").write_text(
            "bool ok(unsigned id, double t) {"
            " return node_operational(id, t); }\n")
        # ...and the defense funnel: the wsn layer may mutate freely.
        (wsn / "defense_user.cpp").write_text(cases["defense-funnel"])
        # ...and the spatial index itself IS the funnel: exempt.
        (wsn / "spatial_index.cpp").write_text(cases["spatial-funnel"])

        linter = Linter(root)
        rc = linter.run()
        if rc != 1:
            failures.append(f"expected exit 1, got {rc}")
        for rule, needle in [
                ("rng-source", "random_device"),
                ("rng-source", "time"),
                ("rng-source", "mt19937"),
                ("pragma-once", "d.h"),
                ("header-using", "e.h"),
                ("raw-io", "f.cpp"),
                ("raw-io", "g.cpp"),
                ("oracle-liveness", "h.cpp"),
                ("oracle-liveness", "i.cpp"),
                ("thread-funnel", "j.cpp"),
                ("thread-funnel", "k.cpp"),
                ("mutex-funnel", "o.cpp"),
                ("mutex-funnel", "p.cpp"),
                ("mutex-funnel", "q.cpp"),
                ("defense-funnel", "m.cpp"),
                ("defense-funnel", "m2.cpp"),
                ("defense-funnel", "n.cpp"),
                ("defense-funnel", "n2.cpp"),
                ("span-funnel", "r.cpp"),
                ("spatial-funnel", "s.cpp"),
                ("engine-funnel", "t.cpp"),
                ("protocol-literal", "3.3"),
        ]:
            if not any(f"[{rule}]" in v and needle in v
                       for v in linter.violations):
                failures.append(f"rule {rule} missed its {needle} plant")
        if any("obs/ok.cpp" in v for v in linter.violations):
            failures.append("raw-io fired inside the exempt src/obs/ tree")
        if any("wsn/network.cpp" in v and "[oracle-liveness]" in v
               for v in linter.violations):
            failures.append(
                "oracle-liveness fired inside the exempt delivery layer")
        if any("util/parallel.cpp" in v and "[thread-funnel]" in v
               for v in linter.violations):
            failures.append(
                "thread-funnel fired inside the exempt pool funnel")
        if any("l.cpp" in v and "[thread-funnel]" in v
               for v in linter.violations):
            failures.append("thread-funnel fired on std::this_thread")
        if any("wsn/defense_user.cpp" in v and "[defense-funnel]" in v
               for v in linter.violations):
            failures.append(
                "defense-funnel fired inside the exempt src/wsn/ tree")
        if any("obs/span_ok.cpp" in v and "[span-funnel]" in v
               for v in linter.violations):
            failures.append(
                "span-funnel fired inside the exempt src/obs/ tree")
        if any("wsn/spatial_index.cpp" in v and "[spatial-funnel]" in v
               for v in linter.violations):
            failures.append(
                "spatial-funnel fired inside the exempt index module")
        if any("queue_ok.cpp" in v and "[engine-funnel]" in v
               for v in linter.violations):
            failures.append(
                "engine-funnel fired on a standalone queue or lint:allow")
        # (match on the location prefix: the rule's advice text itself
        # names the exempt header)
        if any(v.startswith("src/util/thread_annotations.h:")
               and "[mutex-funnel]" in v for v in linter.violations):
            failures.append(
                "mutex-funnel fired inside the exempt wrapper header")

        # And a clean tree must pass, including the lint:allow escape.
        clean = root / "clean"
        (clean / "src").mkdir(parents=True)
        (clean / "src" / "ok.h").write_text(
            "#pragma once\n"
            "inline long stamp() { return time(nullptr); }"
            "  // lint:allow rng-source\n")
        clean_linter = Linter(clean)
        if clean_linter.run() != 0:
            failures.append("clean tree with lint:allow did not pass: "
                            + "\n".join(clean_linter.violations))
    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print("lint.py --self-test: all rules fire and lint:allow works")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a planted violation")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return Linter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
