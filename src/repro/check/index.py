"""The program index every checker pass reads (``load()``).

The purity lint and the four whole-program analyses (arch, costflow,
conc, durflow) all need the same facts about ``src/repro``: each
module's syntax tree, its waiver comments, and the typed call graph.
:func:`load` walks the tree once and reads, ``ast.parse``-s and
tokenizes each file exactly once.  It keeps:

* per file: the path findings report, the dotted module name, the
  tree, and the raw ``(line, tool, reason)`` waiver comments of all
  four tools — each pass builds its own fresh
  :class:`~repro.check.waivers.WaiverSet` from them, so one pass
  consuming a waiver never hides it from another;
* one :class:`~repro.check.costflow.Program`: the class hierarchy,
  attribute and module-singleton types, and every function's call
  edges and sink/source call sites, walked once.

Source bytes and token lists are not kept: a pass that needs more than
the tree summarizes it itself, and its summaries die with the pass.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.check.costflow import Program
from repro.check.waivers import Waiver, WaiverSet, scan_waivers


@dataclass
class SourceFile:
    """One parsed module of the indexed tree."""

    path: str  # as opened; the path every finding reports
    rel: str  # relative to the index root, "/"-separated
    module: str  # dotted module name
    tree: ast.Module
    waivers: List[Tuple[int, str, str]]  # (line, tool, reason)


@dataclass
class ProgramIndex:
    """Every file of one tree, parsed once, plus its typed call graph."""

    package: str
    files: List[SourceFile]
    program: Program

    def waivers(self, tool: str) -> WaiverSet:
        """A fresh set of ``tool``'s waivers, none consumed yet."""
        out = WaiverSet(tool)
        for f in self.files:
            for line, name, reason in f.waivers:
                if name == tool:
                    out.add(Waiver(f.path, line, tool, reason))
        return out


def repo_root() -> str:
    """The ``src/repro`` package directory the checkers defend."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def walk(root: str) -> Iterable[Tuple[str, str]]:
    """``(path, relpath)`` of every ``.py`` file under ``root``, sorted."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                yield full, rel


def module_name(rel: str, package: str) -> str:
    """Dotted module name of ``rel`` (path relative to the package dir)."""
    parts = rel[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package] + parts) if parts else package


def load(root: Optional[str] = None, package: str = "repro") -> ProgramIndex:
    """Index every module under ``root`` (default: ``src/repro``) as
    modules of ``package``."""
    root = root or repo_root()
    program = Program(package)
    files: List[SourceFile] = []
    for path, rel in walk(root):
        with open(path, "rb") as fh:
            source = fh.read()
        module = module_name(rel, package)
        tree = ast.parse(source, filename=path)
        files.append(SourceFile(path, rel, module, tree, scan_waivers(source)))
        program.index_module(module, path, tree)
    program.link_hierarchy()
    program.type_attributes()
    program.type_singletons()
    program.walk_bodies()
    return ProgramIndex(package, files, program)
