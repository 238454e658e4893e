"""Simulation-purity lint (custom AST pass).

The reproduction's results are only trustworthy if every cost flows
through the simulated clock and every run is deterministic.  This lint
walks ``src/repro`` with :mod:`ast` and enforces the purity rules the
test suite cannot see:

* ``wall-clock`` — no ``time.time()`` / ``time.monotonic()`` /
  ``datetime.now()`` etc.  Simulated components must read
  :class:`~repro.device.clock.SimClock`; real elapsed time (the
  harness banner, the bench suite, dual-clock spans) must go through
  :mod:`repro.obs.prof`, the one allowlisted wall-clock provider.
* ``unseeded-random`` — no module-level ``random.*`` calls (global,
  process-wide RNG state).  Seeded ``random.Random(seed)`` instances
  are fine: they are deterministic and local.
* ``dict-order`` — in serialization paths, no direct iteration over
  ``.keys()`` / ``.values()`` / ``.items()``: on-disk bytes must not
  depend on insertion order, so iteration there must go through
  ``sorted(...)``.
* ``str-key`` — tree keys are ``bytes`` with memcmp ordering; a ``str``
  literal crossing a ``core.keys``-style API (``put`` / ``delete`` /
  ``insert`` / ``range_delete`` / ``prefix_range`` ...) would compare
  by code point and silently mis-sort.
* ``mutable-default`` — no mutable default arguments (shared state
  across calls breaks run-to-run determinism).
* ``raw-device-io`` — :class:`~repro.device.block.BlockDevice` / FTL /
  extent-store call sites must live in the cost-charging layers
  (``device/``, ``storage/``, ``baselines/``); anywhere else an I/O
  would move bytes without charging simulated time.
* ``bare-assert`` — no ``assert`` statements in ``src/repro``: CI runs
  the crash/recovery subset under ``python -O``, which strips asserts,
  so an invariant guarded by ``assert`` is an invariant that silently
  stops being checked.  Use :func:`repro.check.errors.require` or a
  typed :class:`~repro.check.errors.CheckError` subclass instead.

``python -m repro.check lint`` (exit 0 = clean) additionally runs the
four whole-program analyses — :mod:`repro.check.arch` (layer manifest +
import cycles), :mod:`repro.check.costflow` (must-charge reachability),
:mod:`repro.check.conc` (concurrency disciplines) and
:mod:`repro.check.durflow` (durability ordering) — over one shared
:mod:`repro.check.index` and merges their findings; ``--format json``
emits a machine-readable report and ``--graph-out PREFIX`` archives the
import graph for CI.

This module is also the one CLI driver: ``python -m repro.check arch``,
``costflow``, ``conc`` and ``durflow`` run one analysis alone through
:func:`run_pass`, which owns graph output and baselines for all four.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
from types import ModuleType
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.check import arch, conc, costflow, durflow
# repo_root is re-exported: callers use lint.repo_root().
from repro.check.index import ProgramIndex, load, repo_root, walk
from repro.check.waivers import Violation

#: All rule identifiers, in reporting order.
RULES = (
    "wall-clock",
    "unseeded-random",
    "dict-order",
    "str-key",
    "mutable-default",
    "raw-device-io",
    "bare-assert",
)

#: Wall-clock functions of the ``time`` module.
_WALLCLOCK_TIME_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "localtime",
    "gmtime",
    "ctime",
}
#: Wall-clock constructors of the ``datetime`` module.
_WALLCLOCK_DT_FNS = {"now", "utcnow", "today"}

#: Module-level ``random`` functions that mutate the global RNG.
_GLOBAL_RANDOM_FNS = {
    "random",
    "randrange",
    "randint",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "getrandbits",
    "gauss",
    "betavariate",
    "expovariate",
    "normalvariate",
}

#: Files whose output becomes on-disk bytes: iteration order there is
#: iteration order on the platter.
SERIALIZATION_PATHS = {
    "core/serialize.py",
    "core/checkpoint.py",
    "core/wal.py",
}

#: Methods that take ``bytes`` keys (the ``core.keys`` API boundary).
_BYTES_KEY_METHODS = {
    "put",
    "delete",
    "patch",
    "insert",
    "range_delete",
    "range_query",
    "empty_range",
    "seek",
}
#: Free functions from ``repro.core.keys`` that take ``bytes``.
_BYTES_KEY_FUNCS = {
    "prefix_range",
    "prefix_successor",
    "common_prefix",
    "common_prefix_of",
    "in_range",
    "ranges_overlap",
    "range_covers",
}

#: Raw-I/O methods per receiver kind.
_DEVICE_IO_METHODS = {"read", "write", "submit_read", "submit_write", "flush", "discard"}
_FTL_IO_METHODS = {"host_write", "trim"}
_STORE_IO_METHODS = {"read", "write", "discard"}

#: Modules allowed to touch the device/FTL/store directly: the
#: cost-charging layers themselves, the offline checker (no simulated
#: time exists offline), device preconditioning (charges no time by
#: documented design), and the crash explorer (it materializes and
#: probes crash-twin devices — post-crash images on their own clocks,
#: where no live simulated timeline exists to be distorted).
_DEVICE_LAYER_PREFIXES = ("device/", "storage/", "baselines/", "check/", "crashmc/")
_DEVICE_LAYER_FILES = {"workloads/aging.py", "harness/ftl.py"}

#: (relpath, rule) pairs tolerated in the repo.  repro.obs.prof is the
#: single sanctioned wall-clock module — every wall-time consumer (the
#: harness banner, bench, dual-clock spans) derives from its one
#: ``perf_counter_ns`` read — and the lint self-test in
#: tests/test_check.py asserts it stays the only one.
DEFAULT_ALLOWLIST: Set[Tuple[str, str]] = {
    ("obs/prof.py", "wall-clock"),
}


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, relpath: str, serialization_path: bool) -> None:
        self.path = path
        self.relpath = relpath
        self.serialization_path = serialization_path
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), rule, message)
        )

    # ------------------------------------------------------------------
    # Imports: `from time import time` smuggles the wall clock in under
    # a bare name the call checks below cannot see.
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME_FNS:
                    self._flag(
                        node,
                        "wall-clock",
                        f"from time import {alias.name}: wall-clock must not "
                        "enter simulated components (use SimClock)",
                    )
        if node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RANDOM_FNS:
                    self._flag(
                        node,
                        "unseeded-random",
                        f"from random import {alias.name}: global RNG state; "
                        "use a seeded random.Random instance",
                    )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            mod, name = func.value.id, func.attr
            if mod == "time" and name in _WALLCLOCK_TIME_FNS:
                self._flag(
                    node,
                    "wall-clock",
                    f"time.{name}() reads the wall clock; simulated code "
                    "must charge SimClock instead",
                )
            if mod == "datetime" and name in _WALLCLOCK_DT_FNS:
                self._flag(
                    node,
                    "wall-clock",
                    f"datetime.{name}() reads the wall clock",
                )
            if mod == "random" and name in _GLOBAL_RANDOM_FNS:
                self._flag(
                    node,
                    "unseeded-random",
                    f"random.{name}() uses the global RNG; use a seeded "
                    "random.Random instance for determinism",
                )
        self._check_str_key(node)
        self._check_raw_device_io(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def _check_str_key(self, node: ast.Call) -> None:
        func = node.func
        target: Optional[str] = None
        if isinstance(func, ast.Attribute) and func.attr in _BYTES_KEY_METHODS:
            target = func.attr
        elif isinstance(func, ast.Name) and func.id in _BYTES_KEY_FUNCS:
            target = func.id
        if target is None:
            return
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                self._flag(
                    node,
                    "str-key",
                    f"str literal {arg.value!r} passed to {target}(): keys "
                    "crossing core.keys APIs must be bytes",
                )

    # ------------------------------------------------------------------
    def _check_raw_device_io(self, node: ast.Call) -> None:
        rel = self.relpath
        if rel.startswith(_DEVICE_LAYER_PREFIXES) or rel in _DEVICE_LAYER_FILES:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        recv = func.value
        recv_name: Optional[str] = None
        if isinstance(recv, ast.Attribute):
            recv_name = recv.attr
        elif isinstance(recv, ast.Name):
            recv_name = recv.id
        if recv_name == "device" and func.attr in _DEVICE_IO_METHODS:
            self._flag(
                node,
                "raw-device-io",
                f"direct BlockDevice.{func.attr}() call outside the "
                "cost-charging layers (go through the southbound API)",
            )
        elif recv_name == "ftl" and func.attr in _FTL_IO_METHODS:
            self._flag(
                node,
                "raw-device-io",
                f"direct FTL.{func.attr}() call outside the device layer",
            )
        elif recv_name == "store" and func.attr in _STORE_IO_METHODS:
            self._flag(
                node,
                "raw-device-io",
                f"direct ExtentStore.{func.attr}() call outside the device "
                "layer (bytes would move without charging time)",
            )

    # ------------------------------------------------------------------
    # dict-order: direct iteration over dict views in serialization
    # paths.  `sorted(d.items())` is the sanctioned form.
    def _check_iter(self, iter_node: ast.expr, where: ast.AST) -> None:
        if not self.serialization_path:
            return
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("keys", "values", "items")
        ):
            self._flag(
                where,
                "dict-order",
                f"iteration over .{iter_node.func.attr}() in a serialization "
                "path: on-disk bytes must not depend on insertion order "
                "(wrap in sorted(...))",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ------------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        mutable = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, mutable):
                self._flag(
                    default,
                    "mutable-default",
                    "mutable default argument (shared across calls; breaks "
                    "run-to-run determinism) — default to None instead",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._flag(
            node,
            "bare-assert",
            "assert statement in src/repro: python -O strips it, so the "
            "invariant silently stops being checked — use "
            "repro.check.errors.require() or raise a typed CheckError",
        )
        self.generic_visit(node)


# ----------------------------------------------------------------------
def lint_file(
    path: str,
    relpath: Optional[str] = None,
    serialization_path: Optional[bool] = None,
    tree: Optional[ast.AST] = None,
) -> List[Violation]:
    """Lint one file (parsed here unless ``tree`` is given).

    ``relpath`` is the path relative to the ``repro`` package, used for
    the per-layer rules; explicit standalone files (fixtures) get the
    strictest profile: every rule applies.
    """
    if relpath is None:
        relpath = os.path.basename(path)
        if serialization_path is None:
            serialization_path = True  # standalone file: strictest profile
    if serialization_path is None:
        serialization_path = relpath in SERIALIZATION_PATHS
    if tree is None:
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read(), filename=path)
    linter = _Linter(path, relpath.replace(os.sep, "/"), serialization_path)
    linter.visit(tree)
    linter.violations.sort(key=lambda v: (v.line, v.rule))
    return linter.violations


def _lint_files(
    files: Iterable[Tuple[str, str, Optional[ast.AST]]], use_allowlist: bool
) -> List[Violation]:
    violations: List[Violation] = []
    for path, rel, tree in files:
        found = lint_file(path, relpath=rel, tree=tree)
        if use_allowlist:
            found = [v for v in found if (rel, v.rule) not in DEFAULT_ALLOWLIST]
        violations.extend(found)
    return violations


def lint_repo(
    index: Optional[ProgramIndex] = None, use_allowlist: bool = True
) -> List[Violation]:
    """Lint every module of ``index`` (default: a fresh index of
    ``src/repro``)."""
    if index is None:
        index = load()
    return _lint_files(((f.path, f.rel, f.tree) for f in index.files), use_allowlist)


def lint_paths(
    paths: Sequence[str], use_allowlist: bool = True
) -> List[Violation]:
    """Lint explicit files and/or directories."""
    violations: List[Violation] = []
    for path in paths:
        if os.path.isdir(path):
            violations.extend(
                _lint_files(((f, r, None) for f, r in walk(path)), use_allowlist)
            )
        else:
            violations.extend(lint_file(path))
    return violations


# ----------------------------------------------------------------------
# The CLI driver
# ----------------------------------------------------------------------
class _Pass(NamedTuple):
    module: ModuleType
    description: str
    noun: str  # of the failure line: "N <noun> violation(s)"
    graph: Optional[Callable]  # report -> the graph --graph-out writes
    baseline: bool  # takes --baseline
    figures: Callable  # report -> its figures in the lint JSON report


#: The whole-program passes, in the order a bare ``lint`` run composes
#: them; each also runs alone as ``python -m repro.check <name>``.
PASSES = {
    "arch": _Pass(
        arch, "Layer-DAG architecture check for the repro codebase",
        "architecture", lambda r: r, False,
        lambda r: {"modules": len(r.modules), "edges": len(r.edges)},
    ),
    "costflow": _Pass(
        costflow, "Interprocedural must-charge analysis for repro",
        "cost-flow", None, False,
        lambda r: {
            "functions": r.functions,
            "call_edges": r.call_edges,
            "charging_functions": r.charging_functions,
            "sources_checked": r.sources_checked,
        },
    ),
    "conc": _Pass(
        conc, "Whole-program static concurrency analysis",
        "concurrency", lambda r: r.lock_graph, True,
        lambda r: {
            "acquire_sites": r.acquire_sites,
            "lock_classes": len(r.lock_graph.nodes),
            "lock_edges": len(r.lock_graph.edges),
            "signal_sites": r.signal_sites,
            "reachable_from_session": r.reachable,
        },
    ),
    "durflow": _Pass(
        durflow, "Whole-program static durability-ordering analysis",
        "durability", lambda r: r.order_graph, True,
        lambda r: {
            "effect_sites": r.effect_sites,
            "barrier_sites": r.barrier_sites,
            "order_edges": len(r.order_graph.edges),
            "entries_checked": r.entries_checked,
            "coordinators": r.coordinators,
        },
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point used by ``python -m repro.check lint``.

    A bare ``lint`` run indexes ``src/repro`` once and composes five
    passes over it: the per-file purity lint, the :mod:`repro.check.arch`
    layer/import analysis, the :mod:`repro.check.costflow` must-charge
    analysis, the :mod:`repro.check.conc` static concurrency analysis,
    and the :mod:`repro.check.durflow` durability-ordering analysis.
    Explicit ``paths`` run only the per-file lint (the whole-program
    analyses need the whole program).  The summary line carries a
    per-pass finding count and the exit code is nonzero on any finding
    from any pass.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.check lint",
        description="Simulation-purity lint + whole-program analyses",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--no-allowlist",
        action="store_true",
        help="report allowlisted findings too (used by the lint self-test)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format (json is machine-readable for CI)",
    )
    parser.add_argument(
        "--graph-out",
        metavar="PREFIX",
        help="write the arch import graph to PREFIX.json + PREFIX.dot",
    )
    args = parser.parse_args(argv)

    waivers: List[str] = []
    extra: dict = {}
    passes: Optional[dict] = None
    if args.paths:
        violations = lint_paths(args.paths, use_allowlist=not args.no_allowlist)
    else:
        index = load()
        violations = lint_repo(index, use_allowlist=not args.no_allowlist)
        passes = {"lint": len(violations)}
        for name, spec in PASSES.items():
            # Called through the module attribute, so a wrapped
            # ``analyze`` (the benchmark's spans) is the one that runs.
            report = spec.module.analyze(index)
            passes[name] = len(report.violations)
            violations.extend(report.violations)
            waivers.extend(report.waivers)
            extra[name] = spec.figures(report)
            if name == "arch" and args.graph_out:
                extra["graph_files"] = write_graph(report, args.graph_out)

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    per_pass = (
        " (" + " ".join(f"{k}={passes[k]}" for k in passes) + ")"
        if passes is not None
        else ""
    )
    if args.fmt == "json":
        payload = {
            "ok": not violations,
            "violations": [v.to_dict() for v in violations],
            "waivers": waivers,
        }
        if passes is not None:
            payload["passes"] = passes
        payload.update(extra)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if violations else 0
    for rendered in waivers:
        print(f"waived: {rendered}")
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} violation(s){per_pass}")
        return 1
    print(f"repro.check lint: clean{per_pass}")
    return 0


def run_pass(name: str, argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point used by ``python -m repro.check <name>``: one
    whole-program analysis alone, same exit-code contract as ``lint``
    (2 on a bad baseline)."""
    spec = PASSES[name]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.check {name}", description=spec.description
    )
    if spec.graph is not None:
        parser.add_argument("--graph-out", help="write PREFIX.json + PREFIX.dot")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    if spec.baseline:
        parser.add_argument(
            "--baseline",
            help="JSON baseline of known findings; fail only on new ones",
        )
    args = parser.parse_args(argv)
    report = spec.module.analyze(load())
    if getattr(args, "graph_out", None):
        for path in write_graph(spec.graph(report), args.graph_out):
            print(f"wrote {path}")
    known: Set[Tuple[str, str]] = set()
    if getattr(args, "baseline", None):
        try:
            known = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro.check {name}: bad baseline: {exc}")
            return 2
    fresh = [v for v in report.violations if not _is_baselined(v, known)]
    baselined = len(report.violations) - len(fresh)
    if args.fmt == "json":
        payload = report.to_dict()
        if spec.baseline:
            payload["new_violations"] = len(fresh)
            payload["baselined"] = baselined
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if fresh else 0
    for rendered in report.waivers:
        print(f"waived: {rendered}")
    for violation in fresh:
        print(violation.render())
    if fresh:
        print(f"{len(fresh)} {spec.noun} violation(s)")
        return 1
    suffix = f", {baselined} baselined" if baselined else ""
    print(f"repro.check {name}: clean ({report.summary()}{suffix})")
    return 0


def write_graph(graph, prefix: str) -> List[str]:
    """Write ``graph.to_dict()`` to ``prefix.json`` and ``graph.to_dot()``
    to ``prefix.dot``; returns the paths."""
    json_path, dot_path = f"{prefix}.json", f"{prefix}.dot"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(graph.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(graph.to_dot())
    return [json_path, dot_path]


def load_baseline(path: str) -> Set[Tuple[str, str]]:
    """Committed-baseline entries as ``(rule, path)`` pairs.

    Baseline paths are repo-relative and matched as path suffixes, and
    line numbers are not part of the key — so a committed baseline
    survives checkouts at other prefixes and unrelated edits above the
    finding."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {(f["rule"], f["path"]) for f in data.get("findings", [])}


def _is_baselined(v: Violation, known: Set[Tuple[str, str]]) -> bool:
    return any(
        rule == v.rule and (v.path == bpath or v.path.endswith("/" + bpath))
        for rule, bpath in known
    )
