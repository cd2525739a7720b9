#!/usr/bin/env python3
"""Include-graph layering analyzer for the SID reproduction.

Replaces regex-only layering discipline with a real dependency check
(DESIGN.md §5i):

  manifest-cycle     the declared layer DAG in scripts/layering.toml must
                     itself be acyclic (checked before any file is read).
  unknown-layer      every file under src/ must live in a directory the
                     manifest declares — new layers are added explicitly,
                     never by accident.
  layer-dep          every `#include "..."` edge in the real include graph
                     (parsed from compile_commands.json include dirs when a
                     build tree exists, from the source tree otherwise)
                     must be allowed by the manifest: a layer may include
                     itself and its declared dependencies only. Harness
                     trees (tests/bench/examples) may include any src
                     layer, but nothing — not even another harness —
                     includes a harness tree, so bench stays a leaf.
  module-dep         a file named in the manifest's [modules] table promises
                     a *tighter* dependency set than its layer (e.g.
                     core/fusion depends on util and obs only, so the
                     fuser never reaches into a sensing or network layer).
                     Its includes may reach its own header pair and the
                     listed layers, nothing else — not even the rest of
                     its own layer.
  include-cycle      the file-level include graph must be acyclic (#pragma
                     once hides cycles from the compiler; they are still a
                     layering fault).
  unresolved-include a quoted include that resolves against no include
                     directory is a typo or a stale path — fail loudly.
  const-cast         `const_cast` outside the const-overload delegation
                     idiom (`const_cast<T*>(this)`) is how code mutates
                     state behind a read-only cross-layer view (suspects(),
                     quarantine_view(), metrics snapshots) without the
                     funnel noticing. Banned in src/.
  extern-global      a non-const `extern` object declaration in a src/
                     header is cross-layer shared mutable state outside
                     every locking funnel. Banned.

The mutation-idiom checks use libclang (AST-grade, sees through macros)
when the python bindings are importable, and a token-level fallback
otherwise — same rules, same escapes, so results only get stricter when
clang is present.

A line can opt out of one rule with a trailing `// layering:allow <rule>`.
`--self-test` plants one violation per rule in a temp tree and verifies
each is caught (wired into ctest as `layering_selftest`).

Exit status: 0 clean, 1 violations found, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "bench", "examples")
HARNESS_DIRS = ("tests", "bench", "examples")
CXX_SUFFIXES = {".h", ".cpp"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
ALLOW_RE = re.compile(r"//\s*layering:allow\s+([a-z-]+)")
CONST_CAST_RE = re.compile(r"\bconst_cast\s*<")
# The one blessed const_cast shape: const-overload delegation to the
# non-const sibling of the same object.
SELF_DELEGATION_RE = re.compile(r"\bconst_cast\s*<[^<>;]*\*\s*>\s*\(\s*this\s*\)")
# `extern` object declaration; `extern "C"` linkage blocks and function
# declarations (trailing `(`), plus anything const-qualified, are fine.
EXTERN_RE = re.compile(r"^\s*extern\s+(?!\")")


def strip_comments_and_strings(line: str) -> str:
    """Blanks // comments and string/char literals (single-line scope, same
    contract as scripts/lint.py)."""
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


class Manifest:
    def __init__(self, layers: dict[str, list[str]],
                 harnesses: dict[str, list[str]],
                 modules: dict[str, list[str]] | None = None):
        self.layers = layers
        self.harnesses = harnesses
        # "<layer>/<stem>" -> allowed layers, tighter than the layer's own
        # list (the module's header pair is implicitly allowed).
        self.modules = modules or {}

    @classmethod
    def load(cls, path: Path) -> "Manifest":
        with path.open("rb") as f:
            data = tomllib.load(f)
        return cls(dict(data.get("layers", {})),
                   dict(data.get("harnesses", {})),
                   dict(data.get("modules", {})))

    def cycle(self) -> list[str] | None:
        """Returns a layer cycle in the declared graph, or None."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self.layers}
        stack: list[str] = []

        def dfs(node: str) -> list[str] | None:
            color[node] = GREY
            stack.append(node)
            for dep in self.layers.get(node, []):
                if dep not in color:
                    continue  # unknown deps reported separately
                if color[dep] == GREY:
                    return stack[stack.index(dep):] + [dep]
                if color[dep] == WHITE:
                    found = dfs(dep)
                    if found:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        for name in self.layers:
            if color[name] == WHITE:
                found = dfs(name)
                if found:
                    return found
        return None


class Analyzer:
    def __init__(self, root: Path, manifest: Manifest,
                 compile_commands: Path | None,
                 force_fallback: bool = False):
        self.root = root
        self.manifest = manifest
        self.force_fallback = force_fallback
        self.violations: list[str] = []
        self.include_dirs = self._include_dirs(compile_commands)
        # file (repo-relative Path) -> list[(lineno, target rel Path)]
        self.graph: dict[Path, list[tuple[int, Path]]] = {}

    def report(self, rule: str, rel: Path, lineno: int, detail: str):
        self.violations.append(f"{rel.as_posix()}:{lineno}: [{rule}] {detail}")

    # ---------------------------------------------------------------- setup

    def _include_dirs(self, compile_commands: Path | None) -> list[Path]:
        """Include search path: -I entries from the compilation database
        when one exists, plus the conventional roots every build adds
        (src/ for all targets, bench/ for the bench targets)."""
        dirs: list[Path] = []
        if compile_commands and compile_commands.is_file():
            try:
                db = json.loads(compile_commands.read_text())
            except (OSError, json.JSONDecodeError) as err:
                raise RuntimeError(
                    f"unreadable compilation database "
                    f"{compile_commands}: {err}") from err
            for entry in db:
                args = entry.get("arguments") or entry.get("command", "").split()
                for i, arg in enumerate(args):
                    inc: str | None = None
                    if arg.startswith("-I") and len(arg) > 2:
                        inc = arg[2:]
                    elif arg == "-I" and i + 1 < len(args):
                        inc = args[i + 1]
                    if inc:
                        p = Path(inc)
                        if not p.is_absolute():
                            p = Path(entry.get("directory", ".")) / p
                        p = p.resolve()
                        if p not in dirs:
                            dirs.append(p)
        for conventional in (self.root / "src", self.root / "bench",
                             self.root):
            if conventional not in dirs:
                dirs.append(conventional)
        return dirs

    def files(self) -> list[Path]:
        found = []
        for d in SOURCE_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            found.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in CXX_SUFFIXES and p.is_file())
        return found

    def layer_of(self, rel: Path) -> str | None:
        """Manifest layer name for a repo-relative path; None = unknown
        src/ subtree (a violation reported by the caller)."""
        parts = rel.parts
        if parts[0] in HARNESS_DIRS:
            return parts[0]
        if parts[0] == "src" and len(parts) > 1:
            return parts[1] if parts[1] in self.manifest.layers else None
        return None

    # -------------------------------------------------------------- include graph

    def resolve(self, includer: Path, target: str) -> Path | None:
        """Resolves a quoted include to a repo-relative path, or None when
        it lands outside the repo / does not exist."""
        candidates = [includer.parent / target]
        candidates += [d / target for d in self.include_dirs]
        for cand in candidates:
            try:
                resolved = cand.resolve()
            except OSError:
                continue
            if resolved.is_file():
                try:
                    return resolved.relative_to(self.root)
                except ValueError:
                    return None  # outside the repo: not ours to police
        return None

    def scan_file(self, path: Path):
        rel = path.relative_to(self.root)
        text = path.read_text(encoding="utf-8", errors="replace")
        edges: list[tuple[int, Path]] = []
        in_block_comment = False
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if in_block_comment:
                end = raw.find("*/")
                if end == -1:
                    continue
                raw = raw[end + 2:]
            allowed = set(ALLOW_RE.findall(raw))
            code = strip_comments_and_strings(raw)
            stripped = raw.split("//")[0]
            if stripped.count("/*") > stripped.count("*/"):
                in_block_comment = True
            # Match the include path on the raw line (the stripper blanks
            # string literals); `code` gates out commented-out directives.
            m = (INCLUDE_RE.match(raw)
                 if code.lstrip().startswith("#") else None)
            if m:
                target = self.resolve(path, m.group(1))
                if target is None:
                    if "unresolved-include" not in allowed:
                        self.report(
                            "unresolved-include", rel, lineno,
                            f'#include "{m.group(1)}" resolves against no '
                            f"include directory "
                            f"({', '.join(str(d) for d in self.include_dirs)})")
                elif "layer-dep" not in allowed:
                    edges.append((lineno, target))
            self._check_mutation_tokens(rel, lineno, code, allowed)
        self.graph[rel] = edges

    def check_edges(self):
        for rel, edges in sorted(self.graph.items()):
            src_layer = self.layer_of(rel)
            if src_layer is None:
                self.report(
                    "unknown-layer", rel, 1,
                    "file is in no declared layer — add its directory to "
                    "scripts/layering.toml")
                continue
            allowed = self._allowed_deps(src_layer)
            module_spec = (
                self.manifest.modules.get(f"{src_layer}/{rel.stem}")
                if rel.parts[0] == "src" else None)
            for lineno, target in edges:
                dst_layer = self.layer_of(target)
                if dst_layer is None:
                    continue  # reported once for the target file itself
                if module_spec is not None:
                    same_module = (dst_layer == src_layer
                                   and target.stem == rel.stem)
                    if not same_module and dst_layer not in module_spec:
                        self.report(
                            "module-dep", rel, lineno,
                            f"module '{src_layer}/{rel.stem}' promises a "
                            f"tighter dependency set than its layer — "
                            f"{target.as_posix()} is outside it (allowed: "
                            f"own header pair, "
                            f"{', '.join(sorted(module_spec)) or 'none'})")
                        continue
                if dst_layer == src_layer:
                    continue
                if dst_layer in HARNESS_DIRS:
                    self.report(
                        "layer-dep", rel, lineno,
                        f"includes harness file {target.as_posix()} — "
                        f"tests/bench/examples are leaves, nothing "
                        f"includes them")
                    continue
                if dst_layer not in allowed:
                    self.report(
                        "layer-dep", rel, lineno,
                        f"layer '{src_layer}' must not include layer "
                        f"'{dst_layer}' ({target.as_posix()}) — allowed: "
                        f"{', '.join(sorted(allowed)) or 'none'}")

    def _allowed_deps(self, layer: str) -> set[str]:
        if layer in HARNESS_DIRS:
            spec = self.manifest.harnesses.get(layer, ["*"])
            if "*" in spec:
                return set(self.manifest.layers)
            return set(spec)
        return set(self.manifest.layers.get(layer, []))

    def check_cycles(self):
        """DFS over the file include graph; reports each cycle once."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[Path, int] = {f: WHITE for f in self.graph}
        stack: list[Path] = []

        def dfs(node: Path):
            color[node] = GREY
            stack.append(node)
            for lineno, target in self.graph.get(node, []):
                if target not in color:
                    continue
                if color[target] == GREY:
                    cycle = stack[stack.index(target):] + [target]
                    self.report(
                        "include-cycle", node, lineno,
                        " -> ".join(p.as_posix() for p in cycle))
                elif color[target] == WHITE:
                    dfs(target)
            stack.pop()
            color[node] = BLACK

        for f in sorted(self.graph):
            if color[f] == WHITE:
                dfs(f)

    # ---------------------------------------------------- mutation idioms

    def _check_mutation_tokens(self, rel: Path, lineno: int, code: str,
                               allowed: set[str]):
        """Token-level cross-layer mutation checks (src/ only). The
        libclang pass re-checks the same rules AST-grade when available."""
        if rel.parts[0] != "src":
            return
        if "const-cast" not in allowed:
            m = CONST_CAST_RE.search(code)
            if m and not SELF_DELEGATION_RE.search(code):
                self.report(
                    "const-cast", rel, lineno,
                    "const_cast outside the const-overload delegation "
                    "idiom — mutating through a read-only view bypasses "
                    "the cross-layer funnels")
        if (rel.suffix == ".h" and "extern-global" not in allowed
                and EXTERN_RE.match(code)
                and "const" not in code.split("=")[0].split("(")[0]
                and "(" not in code.split(";")[0]):
            self.report(
                "extern-global", rel, lineno,
                f"non-const extern object '{code.strip()[:60]}' in a "
                f"header is cross-layer shared mutable state outside "
                f"every locking funnel")

    def run_libclang(self) -> bool:
        """AST-grade const_cast check via libclang; True when it ran. The
        token pass above already reported — this pass only *adds* findings
        the tokens missed (casts assembled by macros)."""
        if self.force_fallback:
            return False
        try:
            from clang import cindex  # type: ignore
            index = cindex.Index.create()
        except Exception:
            return False
        for path in self.files():
            rel = path.relative_to(self.root)
            if rel.parts[0] != "src":
                continue
            try:
                tu = index.parse(
                    str(path),
                    args=[f"-I{d}" for d in self.include_dirs]
                    + ["-std=c++20"])
            except Exception:
                continue
            lines = path.read_text(errors="replace").splitlines()
            for cursor in tu.cursor.walk_preorder():
                if cursor.kind != cindex.CursorKind.CXX_CONST_CAST_EXPR:
                    continue
                if cursor.location.file is None:
                    continue
                if Path(cursor.location.file.name).resolve() != path:
                    continue
                lineno = cursor.location.line
                raw = lines[lineno - 1] if lineno <= len(lines) else ""
                if "const-cast" in set(ALLOW_RE.findall(raw)):
                    continue
                if SELF_DELEGATION_RE.search(raw):
                    continue
                finding = (f"{rel.as_posix()}:{lineno}: [const-cast] "
                           f"const_cast (AST) outside the const-overload "
                           f"delegation idiom")
                already = any(v.startswith(f"{rel.as_posix()}:{lineno}:")
                              and "[const-cast]" in v
                              for v in self.violations)
                if not already:
                    self.violations.append(finding)
        return True

    # --------------------------------------------------------------- driver

    def run(self) -> int:
        cycle = self.manifest.cycle()
        if cycle:
            self.violations.append(
                f"scripts/layering.toml:1: [manifest-cycle] declared layer "
                f"graph is cyclic: {' -> '.join(cycle)}")
            # The DAG is the ground truth everything else checks against;
            # stop here.
            return self.finish(0)
        files = self.files()
        if not files:
            print("layering.py: no source files found", file=sys.stderr)
            return 2
        for f in files:
            self.scan_file(f)
        self.check_edges()
        self.check_cycles()
        ast = self.run_libclang()
        return self.finish(len(files), ast)

    def finish(self, nfiles: int, ast: bool = False) -> int:
        if self.violations:
            for v in sorted(set(self.violations)):
                print(v, file=sys.stderr)
            print(f"layering.py: {len(set(self.violations))} violation(s) "
                  f"in {nfiles} files", file=sys.stderr)
            return 1
        mode = "libclang AST + tokens" if ast else "token fallback"
        print(f"layering.py: OK ({nfiles} files, include graph + layer DAG "
              f"clean, mutation checks via {mode})")
        return 0


# ------------------------------------------------------------------ self-test

def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def self_test() -> int:
    """Plants one violation per rule and asserts the analyzer catches it,
    then asserts a clean tree (with layering:allow escapes) passes."""
    manifest = Manifest(
        {"util": [], "wsn": ["util"], "core": ["util", "wsn"]},
        {"tests": ["*"], "bench": ["*"], "examples": ["*"]},
        {"wsn/tight": ["util"]})
    failures: list[str] = []

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # Clean base layer.
        _write(root / "src/util/rng.h", "#pragma once\nint seed();\n")
        # layer-dep plant: wsn reaches *up* into core.
        _write(root / "src/core/system.h",
               '#pragma once\n#include "wsn/up.h"\n')
        _write(root / "src/wsn/up.h",
               '#pragma once\n#include "core/system.h"\n')  # also a cycle
        # layer-dep plant: src includes a bench header.
        _write(root / "bench/fixture.h", "#pragma once\nint n();\n")
        _write(root / "src/util/bad_bench.cpp",
               '#include "bench/fixture.h"\n')
        # unknown-layer plant: a directory the manifest never declared.
        _write(root / "src/rogue/x.cpp", "int x;\n")
        # unresolved-include plant.
        _write(root / "src/util/typo.cpp", '#include "util/nope.h"\n')
        # const-cast plant + the exempt self-delegation idiom.
        _write(root / "src/wsn/cast.cpp",
               "void f(const int* p) { *const_cast<int*>(p) = 1; }\n")
        _write(root / "src/wsn/delegate.cpp",
               "struct T { int* find(); const int* find() const {\n"
               "  return const_cast<T*>(this)->find(); } };\n")
        # extern-global plant (and an exempt const + function decl).
        _write(root / "src/util/globals.h",
               "#pragma once\n"
               "extern int mutable_global;\n"
               "extern const int kTableSize;\n"
               "extern int pure_function(int);\n")
        # module-dep plant: a [modules]-listed file reaching into the rest
        # of its own layer; its own header and listed layers stay exempt.
        _write(root / "src/wsn/peer.h", "#pragma once\nint peer();\n")
        _write(root / "src/wsn/tight.h", "#pragma once\nint tight();\n")
        _write(root / "src/wsn/tight.cpp",
               '#include "wsn/tight.h"\n'
               '#include "util/rng.h"\n'
               '#include "wsn/peer.h"\n')
        # Harness may include src but not bench.
        _write(root / "tests/ok_test.cpp", '#include "util/rng.h"\n')
        _write(root / "tests/bad_test.cpp", '#include "bench/fixture.h"\n')

        analyzer = Analyzer(root, manifest, None, force_fallback=True)
        rc = analyzer.run()
        if rc != 1:
            failures.append(f"expected exit 1, got {rc}")
        for rule, needle in [
                ("layer-dep", "wsn/up.h"),           # upward dep
                ("layer-dep", "util/bad_bench.cpp"),  # src -> bench
                ("layer-dep", "tests/bad_test.cpp"),  # harness -> bench
                ("include-cycle", "core/system.h"),
                ("unknown-layer", "rogue"),
                ("unresolved-include", "nope.h"),
                ("const-cast", "wsn/cast.cpp"),
                ("extern-global", "mutable_global"),
                ("module-dep", "wsn/peer.h"),
        ]:
            if not any(f"[{rule}]" in v and needle in v
                       for v in analyzer.violations):
                failures.append(f"rule {rule} missed its {needle} plant")
        for exempt, rule in [
                ("wsn/delegate.cpp", "const-cast"),
                ("kTableSize", "extern-global"),
                ("pure_function", "extern-global"),
                ("tests/ok_test.cpp", "layer-dep"),
                ("wsn/tight.h", "module-dep"),
                ("util/rng.h", "module-dep"),
        ]:
            if any(f"[{rule}]" in v and exempt in v
                   for v in analyzer.violations):
                failures.append(f"rule {rule} fired on exempt {exempt}")

        # A cyclic manifest must fail before any file is read.
        bad = Manifest({"a": ["b"], "b": ["a"]}, {})
        cyclic = Analyzer(root, bad, None, force_fallback=True)
        if cyclic.run() != 1 or not any(
                "[manifest-cycle]" in v for v in cyclic.violations):
            failures.append("manifest-cycle not detected")

    # Clean tree with layering:allow escapes passes.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root / "src/util/rng.h", "#pragma once\nint seed();\n")
        _write(root / "src/util/esc.cpp",
               "void f(const int* p) {\n"
               "  *const_cast<int*>(p) = 1;  // layering:allow const-cast\n"
               "}\n")
        clean = Analyzer(root, Manifest({"util": []}, {}), None,
                         force_fallback=True)
        if clean.run() != 0:
            failures.append("clean tree with layering:allow did not pass: "
                            + "\n".join(clean.violations))

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print("layering.py --self-test: all rules fire and layering:allow works")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root to analyze")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="layer DAG manifest (default: "
                             "<root>/scripts/layering.toml)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compilation database for include dirs "
                             "(default: <root>/build/compile_commands.json "
                             "when present)")
    parser.add_argument("--force-fallback", action="store_true",
                        help="skip libclang even when importable "
                             "(token-level checks only)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a planted violation")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root.resolve()
    manifest_path = args.manifest or root / "scripts" / "layering.toml"
    if not manifest_path.is_file():
        print(f"layering.py: manifest {manifest_path} not found",
              file=sys.stderr)
        return 2
    db = args.compile_commands
    if db is None:
        conventional = root / "build" / "compile_commands.json"
        db = conventional if conventional.is_file() else None
    try:
        analyzer = Analyzer(root, Manifest.load(manifest_path), db,
                            force_fallback=args.force_fallback)
        return analyzer.run()
    except RuntimeError as err:
        print(f"layering.py: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
