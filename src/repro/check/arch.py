"""Whole-program architecture analysis (``python -m repro.check arch``).

The reproduction's cost accounting is a *layered* property: workloads
drive file systems, file systems drive the VFS, the VFS drives the
key-value core, the core drives storage, storage drives the device, and
only the bottom layers charge the simulated clock.  A single back-door
import — say, a workload touching :class:`~repro.device.block.ExtentStore`
directly — bypasses every charge on the way down and silently corrupts
the results the paper tables are built from.  The per-statement purity
lint (:mod:`repro.check.lint`) cannot see that: it checks call sites,
not the global shape of the program.

This module reads every module's tree from the program index
(:mod:`repro.check.index`), builds the module import graph (``import``, ``from``-imports, *and* function-local
imports), and checks it against the declared layer manifest below:

* every module must be classified by the manifest
  (``unclassified-module``) — new packages cannot dodge the DAG;
* edges must point strictly *downward* in the manifest order
  (``layer-violation``), except edges inside one manifest entry;
* the graph must be acyclic (``import-cycle``), via
  :func:`repro.check.graph.cycles`;
* deliberate exceptions carry an inline ``# arch: allow[reason]``
  waiver on the import line — waived edges are excluded from both
  checks but reported in every run, and a waiver that suppresses
  nothing is itself an error (``unused-waiver``).

``--graph-out PREFIX`` archives the discovered architecture as
``PREFIX.json`` (machine-readable) and ``PREFIX.dot`` (Graphviz, one
cluster per layer) so CI can diff it across commits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.graph import cycles
from repro.check.index import ProgramIndex, load, repo_root, walk
from repro.check.waivers import Violation

#: Rule identifiers this analysis can emit.
RULES = ("layer-violation", "import-cycle", "unclassified-module", "unused-waiver")

#: The declared layer DAG, top layer first.  Each entry is
#: ``(layer name, module prefixes)``; a module belongs to the entry with
#: the *longest* matching prefix, so ``repro.check.errors`` (a leaf
#: utility: typed exceptions with no imports) can sit at the bottom
#: while the rest of ``repro.check`` — whole-tree analyses that import
#: core/storage/device to walk their structures — sits near the top.
#: Imports inside one entry are always legal; imports across entries
#: must go strictly downward.
LAYER_MANIFEST: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("root", ("repro",)),
    ("harness", ("repro.harness",)),
    ("workloads", ("repro.workloads",)),
    ("crashmc", ("repro.crashmc",)),
    ("sched", ("repro.sched",)),
    ("shard", ("repro.shard",)),
    ("checkers", ("repro.check",)),
    ("baselines", ("repro.baselines",)),
    ("betrfs", ("repro.betrfs",)),
    ("vfs", ("repro.vfs",)),
    ("core", ("repro.core",)),
    ("storage", ("repro.storage",)),
    ("kmem", ("repro.kmem",)),
    ("obs", ("repro.obs",)),
    ("device", ("repro.device",)),
    ("model", ("repro.model",)),
    ("errors", ("repro.check.errors",)),
)


@dataclass
class ImportEdge:
    """One import statement, resolved to a target module."""

    src: str  # importing module
    dst: str  # imported module (resolved)
    path: str  # file of the import statement
    line: int
    local: bool  # inside a function/method body (lazy import)
    waived_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "src": self.src,
            "dst": self.dst,
            "line": self.line,
            "local": self.local,
        }
        if self.waived_reason is not None:
            out["waived"] = self.waived_reason
        return out


@dataclass
class ArchReport:
    """Import graph + layer assignment + findings."""

    modules: Dict[str, str] = field(default_factory=dict)  # module -> layer
    edges: List[ImportEdge] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    waivers: List[str] = field(default_factory=list)  # used, rendered

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "layers": [name for name, _ in LAYER_MANIFEST],
            "modules": dict(sorted(self.modules.items())),
            "edges": [e.to_dict() for e in self.edges],
            "violations": [v.to_dict() for v in self.violations],
            "waivers": list(self.waivers),
        }

    def summary(self) -> str:
        return (
            f"{len(self.modules)} modules, {len(self.edges)} edges, "
            f"{len(self.waivers)} waiver(s)"
        )

    def to_dot(self) -> str:
        """Graphviz rendering: one cluster per layer, top to bottom."""
        by_layer: Dict[str, List[str]] = {}
        for mod, layer in sorted(self.modules.items()):
            by_layer.setdefault(layer, []).append(mod)
        lines = [
            "digraph repro_arch {",
            "  rankdir=TB;",
            '  node [shape=box, fontsize=10, fontname="monospace"];',
        ]
        for i, (layer, _prefixes) in enumerate(LAYER_MANIFEST):
            mods = by_layer.get(layer)
            if not mods:
                continue
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="{layer}";')
            for mod in mods:
                lines.append(f'    "{mod}";')
            lines.append("  }")
        for edge in self.edges:
            attrs = []
            if edge.local:
                attrs.append("style=dashed")
            if edge.waived_reason is not None:
                attrs.append("color=orange")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f'  "{edge.src}" -> "{edge.dst}"{suffix};')
        # Legend: every manifest layer, top to bottom, whether or not
        # any analyzed module landed in it (so a fixture render still
        # documents the full 17-layer stack, sched and shard included).
        legend = "\\l".join(layer for layer, _prefixes in LAYER_MANIFEST) + "\\l"
        lines.append("  subgraph cluster_legend {")
        lines.append('    label="layers (top to bottom)";')
        lines.append(f'    "legend" [shape=plaintext, label="{legend}"];')
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Manifest lookups
# ----------------------------------------------------------------------
def _ranked_manifest(
    manifest: Sequence[Tuple[str, Sequence[str]]],
) -> List[Tuple[str, int, str]]:
    """Flatten to ``(prefix, rank, layer name)``, longest prefix first."""
    flat = []
    for rank, (layer, prefixes) in enumerate(manifest):
        for prefix in prefixes:
            flat.append((prefix, rank, layer))
    flat.sort(key=lambda item: -len(item[0]))
    return flat


def classify(
    module: str, manifest: Sequence[Tuple[str, Sequence[str]]]
) -> Optional[Tuple[int, str]]:
    """``(rank, layer name)`` of ``module``; ``None`` = unclassified.

    Dotted prefixes claim their whole subtree; a bare prefix (no dot —
    the package root module itself) matches only exactly, so a *new*
    subpackage never silently inherits the root's layer.
    """
    for prefix, rank, layer in _ranked_manifest(manifest):
        if module == prefix:
            return rank, layer
        if "." in prefix and module.startswith(prefix + "."):
            return rank, layer
    return None


def manifest_packages(
    manifest: Sequence[Tuple[str, Sequence[str]]] = LAYER_MANIFEST,
) -> List[str]:
    """Top-level packages the manifest classifies (for the CI diff)."""
    tops = set()
    for _layer, prefixes in manifest:
        for prefix in prefixes:
            parts = prefix.split(".")
            if len(parts) > 1:  # bare root prefix names no package
                tops.add(parts[1])
    return sorted(tops)


def discovered_packages(root: Optional[str] = None) -> List[str]:
    """Top-level packages actually present under ``src/repro``."""
    root = root or repo_root()
    found = set()
    for _full, rel in walk(root):
        if "/" in rel:
            found.add(rel.split("/")[0])
    return sorted(found)


# ----------------------------------------------------------------------
# Import extraction
# ----------------------------------------------------------------------
class _ImportCollector(ast.NodeVisitor):
    """Collect every import of one module, with function-local depth."""

    def __init__(self, module: str, package: str) -> None:
        self.module = module  # full dotted name of the visited module
        self.package = package  # top-level package name ("repro")
        self.depth = 0  # >0 inside a function body
        #: (target dotted name, lineno, local)
        self.raw: List[Tuple[str, int, bool]] = []
        #: (base module, imported names, lineno, local) from-imports
        self.raw_from: List[Tuple[str, List[str], int, bool]] = []

    def _add(self, target: str, line: int) -> None:
        if target == self.package or target.startswith(self.package + "."):
            self.raw.append((target, line, self.depth > 0))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0:
            base = node.module or ""
        else:
            # Relative import: resolve against the visited module's
            # package path (module "a.b.c" at level 1 -> package "a.b").
            parts = self.module.split(".")
            # Non-package modules drop their last component first.
            parts = parts[: len(parts) - node.level]
            base = ".".join(parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if not base:
            return
        # ``from repro.core import wal`` binds the *submodule*; the
        # package ``__init__`` body contributes nothing, so the base
        # edge is recorded as a candidate and kept only if some
        # imported name is NOT a submodule (resolution decides — see
        # ``analyze`` pass 2).
        self.raw_from.append(
            (base, [alias.name for alias in node.names], node.lineno, self.depth > 0)
        )

    def _descend(self, node) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_FunctionDef = _descend
    visit_AsyncFunctionDef = _descend
    visit_Lambda = _descend

    def visit_If(self, node: ast.If) -> None:
        # ``if TYPE_CHECKING:`` imports never execute; they are type-only
        # edges and excluded from the runtime import graph.
        test = node.test
        name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
        if name == "TYPE_CHECKING":
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def analyze(
    index: Optional[ProgramIndex] = None,
    manifest: Sequence[Tuple[str, Sequence[str]]] = LAYER_MANIFEST,
) -> ArchReport:
    """Run the architecture analysis over one indexed tree (default:
    a fresh index of ``src/repro``)."""
    if index is None:
        index = load()
    package = index.package
    report = ArchReport()
    waivers = index.waivers("arch")
    ranked: Dict[str, Tuple[int, str]] = {}
    known_modules = {f.module for f in index.files}

    # Pass 1: classify modules and collect raw imports.
    raw_imports: List[Tuple[str, str, str, int, bool]] = []
    for f in index.files:
        module, path = f.module, f.path
        cls = classify(module, manifest)
        if cls is None:
            report.violations.append(
                Violation(
                    path,
                    1,
                    "unclassified-module",
                    f"module {module} matches no layer-manifest prefix; "
                    "assign it a layer in repro.check.arch.LAYER_MANIFEST",
                )
            )
            report.modules[module] = "(unclassified)"
        else:
            ranked[module] = cls
            report.modules[module] = cls[1]
        collector = _ImportCollector(module, package)
        collector.visit(f.tree)
        for target, line, local in collector.raw:
            raw_imports.append((module, target, path, line, local))
        for base, names, line, local in collector.raw_from:
            if base != package and not base.startswith(package + "."):
                continue
            base_needed = False
            for name in names:
                deep = f"{base}.{name}"
                if deep in known_modules:
                    raw_imports.append((module, deep, path, line, local))
                else:
                    # A plain attribute: the base module's body supplies
                    # it, so the dependency on the base is real.
                    base_needed = True
            if base_needed or not names:
                raw_imports.append((module, base, path, line, local))

    # Pass 2: resolve targets to known modules and dedupe per line.
    seen = set()
    for src, target, path, line, local in raw_imports:
        dst = target
        while dst not in known_modules and "." in dst:
            dst = dst.rsplit(".", 1)[0]
        if dst not in known_modules or dst == src:
            continue
        key = (src, dst, line)
        if key in seen:
            continue
        seen.add(key)
        report.edges.append(ImportEdge(src, dst, path, line, local))
    report.edges.sort(key=lambda e: (e.src, e.line, e.dst))

    # Pass 3: layer check (waivers consume findings edge-by-edge).
    for edge in report.edges:
        src_cls = ranked.get(edge.src)
        dst_cls = ranked.get(edge.dst)
        if src_cls is None or dst_cls is None:
            continue  # already reported as unclassified
        if src_cls[1] == dst_cls[1] or src_cls[0] < dst_cls[0]:
            continue  # same entry, or strictly downward
        waiver = waivers.consume(edge.path, edge.line)
        if waiver is not None:
            edge.waived_reason = waiver.reason
            continue
        direction = "upward" if src_cls[0] > dst_cls[0] else "sideways"
        report.violations.append(
            Violation(
                edge.path,
                edge.line,
                "layer-violation",
                f"{edge.src} (layer {src_cls[1]!r}) imports {edge.dst} "
                f"(layer {dst_cls[1]!r}): {direction} edge breaks the "
                "declared DAG — route through a lower layer or add "
                "'# arch: allow[reason]'",
            )
        )

    # Pass 4: cycles over the unwaived graph.  A waiver on *any*
    # in-cycle edge breaks that edge out of the graph; the SCCs are
    # recomputed until no waiver applies, then survivors report.
    while True:
        consumed_any = False
        for scc in _cycles(report.edges, known_modules):
            for edge in report.edges:
                if (
                    edge.waived_reason is None
                    and edge.src in scc
                    and edge.dst in scc
                ):
                    waiver = waivers.consume(edge.path, edge.line)
                    if waiver is not None:
                        edge.waived_reason = waiver.reason
                        consumed_any = True
        if not consumed_any:
            break
    for scc in _cycles(report.edges, known_modules):
        path, line = _edge_location(report.edges, scc)
        report.violations.append(
            Violation(
                path,
                line,
                "import-cycle",
                "import cycle: " + " -> ".join(_cycle_path(report.edges, scc)),
            )
        )

    report.waivers = waivers.finish(report.violations, "the edge is sound")
    return report


def _cycles(
    edges: Iterable[ImportEdge], modules: Iterable[str]
) -> List[List[str]]:
    """Import cycles (SCCs) of the unwaived graph."""
    graph: Dict[str, List[str]] = {m: [] for m in modules}
    for e in edges:
        if e.waived_reason is None:
            graph[e.src].append(e.dst)
    return cycles(graph, graph.__getitem__)


def _cycle_path(edges: Iterable[ImportEdge], scc: List[str]) -> List[str]:
    """An actual module cycle inside ``scc`` (BFS back to the anchor)."""
    in_scc = set(scc)
    graph: Dict[str, List[str]] = {m: [] for m in scc}
    for e in edges:
        if e.waived_reason is None and e.src in in_scc and e.dst in in_scc:
            graph[e.src].append(e.dst)
    anchor = min(scc)
    # Shortest path anchor -> anchor through at least one edge.
    frontier = [[anchor]]
    seen = set()
    while frontier:
        path = frontier.pop(0)
        for nxt in sorted(graph[path[-1]]):
            if nxt == anchor:
                return path + [anchor]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(path + [nxt])
    return scc + [anchor]  # disconnected only if waivers cut the SCC


def _edge_location(
    edges: Iterable[ImportEdge], cycle: List[str]
) -> Tuple[str, int]:
    """A stable (path, line) anchor for a cycle: its first in-cycle edge."""
    in_cycle = set(cycle)
    best: Optional[Tuple[str, int]] = None
    for e in edges:
        if e.src in in_cycle and e.dst in in_cycle and e.waived_reason is None:
            loc = (e.path, e.line)
            if best is None or loc < best:
                best = loc
    return best if best is not None else ("<unknown>", 0)
