"""Wall-clock provider + deterministic-friendly profiling capture.

This module is the **single sanctioned wall-clock reader** in the
whole package: the simulation-purity lint
(:mod:`repro.check.lint`) allowlists exactly one ``wall-clock``
finding, and it lives here, in :func:`wall_ns` — the lint self-test in
``tests/test_check.py`` pins it.  Everything that needs real elapsed
time (the harness banner, the ``bench`` subcommand, dual-clock spans)
imports this module instead of touching :mod:`time` directly, so a
stray ``time.perf_counter()`` anywhere else in ``src/repro`` is a lint
error, not a silent determinism leak.

``perf_counter_ns`` is the right primitive: it is monotonic (immune to
NTP steps and DST, unlike ``time.time()``), has the highest available
resolution, and — being an integer — accumulates no floating-point
error across long runs.

Profiling capture
-----------------

:class:`WallProfiler` wraps :mod:`cProfile` and aggregates the
captured ``pstats`` rows onto the declared 16-layer architecture
manifest of :mod:`repro.check.arch` — the same manifest the import-DAG
checker enforces — so a profile answers "which *layer* burns the wall
clock", not just "which function".  It also exports top-N hot
functions and a collapsed-stack rendering
(``layer;module;function count``) loadable by standard flamegraph
tools.

Profiling is a pure observer: it reads the wall clock and Python frame
counters only, never the simulated clock or device state, so device
bytes and simulated time are bit-identical with profiling on or off
(tested in ``tests/test_obs.py``).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Stopwatch",
    "WallProfiler",
    "layer_of_file",
    "wall_ns",
    "wall_s",
]

#: Directory of the installed ``repro`` package (…/src/repro); profiled
#: code filenames under it map back to dotted module names.
_PKG_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def wall_ns() -> int:
    """Monotonic wall-clock nanoseconds.

    The one sanctioned wall-clock read in ``src/repro`` (see the
    module docstring); every other wall-time consumer derives from it.
    """
    return time.perf_counter_ns()


def wall_s() -> float:
    """Monotonic wall-clock seconds (derived from :func:`wall_ns`)."""
    return wall_ns() / 1e9


class Stopwatch:
    """Elapsed wall time since construction (or the last ``reset``)."""

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = wall_ns()

    def reset(self) -> None:
        self._start = wall_ns()

    @property
    def elapsed_ns(self) -> int:
        return wall_ns() - self._start

    @property
    def elapsed(self) -> float:
        """Elapsed seconds."""
        return self.elapsed_ns / 1e9


# ----------------------------------------------------------------------
# Layer attribution
# ----------------------------------------------------------------------
def _manifest() -> Sequence[Tuple[str, Sequence[str]]]:
    """The declared layer manifest, reused from the arch checker.

    Lazy on purpose: profiling is an offline/reporting concern, and the
    simulation must not depend on the checkers at import time.
    """
    from repro.check import arch  # arch: allow[read-only reuse of the declared layer manifest for profile attribution; lazy import — the simulation never runs through this path]

    return arch.LAYER_MANIFEST


def _classify(
    module: str, manifest: Sequence[Tuple[str, Sequence[str]]]
) -> Optional[str]:
    """Layer name of ``module`` per the manifest (longest prefix wins)."""
    best: Optional[Tuple[int, str]] = None
    for layer, prefixes in manifest:
        for prefix in prefixes:
            if module == prefix or ("." in prefix and module.startswith(prefix + ".")):
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), layer)
    return None if best is None else best[1]


def module_of_file(filename: str) -> Optional[str]:
    """Dotted ``repro.*`` module name for a code filename, else None."""
    if not filename or filename.startswith(("<", "~")):
        return None
    try:
        rel = os.path.relpath(os.path.abspath(filename), _PKG_DIR)
    except ValueError:  # different drive (Windows)
        return None
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = rel[: -len(".py")].replace(os.sep, "/").split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro", *parts]) if parts else "repro"


def layer_of_file(
    filename: str,
    manifest: Optional[Sequence[Tuple[str, Sequence[str]]]] = None,
) -> str:
    """Architecture layer a code filename belongs to.

    Files outside the ``repro`` package collapse into two synthetic
    layers: ``(builtin)`` for C/builtin frames (cProfile reports them
    with ``~`` filenames) and ``(other)`` for foreign Python (stdlib,
    tests, the harness driver itself when run from a checkout).
    """
    if not filename or filename.startswith(("<", "~")):
        return "(builtin)"
    module = module_of_file(filename)
    if module is None:
        return "(other)"
    layer = _classify(module, manifest if manifest is not None else _manifest())
    return layer if layer is not None else "(unclassified)"


# ----------------------------------------------------------------------
# cProfile capture
# ----------------------------------------------------------------------
class WallProfiler:
    """Capture a wall-clock CPU profile and aggregate it by layer.

    Usage::

        prof = WallProfiler()
        with prof:
            run_workload(...)
        print(prof.render())                  # layer table + top-N
        open("out.folded", "w").write(prof.collapsed())

    The capture is :mod:`cProfile` (deterministic tracing profiler, not
    sampling), so call counts are exact and ``tottime``/``cumtime``
    come from the C-level timer.  Aggregation maps each profiled
    function's filename onto the arch layer manifest.
    """

    def __init__(
        self,
        manifest: Optional[Sequence[Tuple[str, Sequence[str]]]] = None,
    ) -> None:
        self._manifest_override = manifest
        self._prof = cProfile.Profile()
        self._running = False

    # -- capture -------------------------------------------------------
    def start(self) -> None:
        if not self._running:
            self._prof.enable()
            self._running = True

    def stop(self) -> None:
        if self._running:
            self._prof.disable()
            self._running = False

    def __enter__(self) -> "WallProfiler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # -- raw access ----------------------------------------------------
    def pstats(self) -> pstats.Stats:
        """The capture as a :class:`pstats.Stats` (sortable, printable)."""
        self.stop()
        return pstats.Stats(self._prof)

    def _rows(self) -> Dict[Tuple[str, int, str], Tuple[int, int, float, float, Any]]:
        """pstats' raw table: {(file, line, func): (cc, nc, tt, ct, callers)}."""
        return self.pstats().stats  # type: ignore[attr-defined]

    def _layer_of(self, filename: str) -> str:
        manifest = self._manifest_override
        if manifest is None:
            manifest = _manifest()
        return layer_of_file(filename, manifest)

    # -- aggregation ---------------------------------------------------
    def layer_table(self) -> List[Dict[str, Any]]:
        """Wall time attributed per architecture layer.

        One row per layer: ``calls``, ``tottime`` (self time inside the
        layer's functions — sums to total profiled time across rows),
        and ``cumtime_max`` (largest single cumulative entry, an upper
        bound on "time spent at or below this layer").  Sorted by
        descending ``tottime``.
        """
        agg: Dict[str, Dict[str, float]] = {}
        for (filename, _line, _func), (_cc, nc, tt, ct, _callers) in self._rows().items():
            layer = self._layer_of(filename)
            row = agg.setdefault(
                layer, {"calls": 0, "tottime": 0.0, "cumtime_max": 0.0}
            )
            row["calls"] += nc
            row["tottime"] += tt
            row["cumtime_max"] = max(row["cumtime_max"], ct)
        out = [
            {"layer": layer, **vals}
            for layer, vals in agg.items()
        ]
        out.sort(key=lambda r: (-r["tottime"], r["layer"]))
        return out

    def top_functions(self, n: int = 20) -> List[Dict[str, Any]]:
        """Top-``n`` functions by self (``tottime``) wall time."""
        rows = []
        for (filename, line, func), (_cc, nc, tt, ct, _callers) in self._rows().items():
            rows.append(
                {
                    "layer": self._layer_of(filename),
                    "module": module_of_file(filename) or os.path.basename(filename or "~"),
                    "function": func,
                    "line": line,
                    "calls": nc,
                    "tottime": tt,
                    "cumtime": ct,
                }
            )
        rows.sort(key=lambda r: (-r["tottime"], r["module"], r["function"]))
        return rows[:n]

    def collapsed(self) -> str:
        """Collapsed-stack export (``layer;module;function count``).

        One line per profiled function, weighted by self time in
        microseconds — the folded format flamegraph.pl /
        speedscope-style tools consume.  cProfile records a call graph,
        not full stacks, so the "stack" here is the attribution chain
        (layer → module → function); it renders as a two-deep
        flamegraph grouping functions under their layer.
        """
        lines = []
        for (filename, _line, func), (_cc, _nc, tt, _ct, _callers) in self._rows().items():
            us = int(round(tt * 1e6))
            if us <= 0:
                continue
            layer = self._layer_of(filename)
            module = module_of_file(filename) or os.path.basename(filename or "~")
            lines.append(f"{layer};{module};{func} {us}")
        lines.sort()
        return "\n".join(lines) + ("\n" if lines else "")

    # -- rendering -----------------------------------------------------
    def render(self, top: int = 15) -> str:
        """Human-readable report: per-layer table + top-N hot functions."""
        lines = ["wall-clock profile by architecture layer:"]
        lines.append(
            f"  {'layer':<16s}{'calls':>12s}{'self(s)':>12s}{'max cum(s)':>12s}"
        )
        for row in self.layer_table():
            lines.append(
                f"  {row['layer']:<16s}{row['calls']:>12d}"
                f"{row['tottime']:>12.4f}{row['cumtime_max']:>12.4f}"
            )
        lines.append("")
        lines.append(f"top {top} functions by self wall time:")
        lines.append(
            f"  {'self(s)':>10s}{'cum(s)':>10s}{'calls':>10s}  function"
        )
        for row in self.top_functions(top):
            lines.append(
                f"  {row['tottime']:>10.4f}{row['cumtime']:>10.4f}"
                f"{row['calls']:>10d}  {row['module']}:{row['function']} "
                f"[{row['layer']}]"
            )
        return "\n".join(lines)

