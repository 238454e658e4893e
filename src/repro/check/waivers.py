"""Findings and inline waiver comments shared by every checker pass.

A finding from :mod:`repro.check.arch`, :mod:`repro.check.costflow`,
:mod:`repro.check.conc` or :mod:`repro.check.durflow` can be suppressed — *one finding, one line, one reason* — with an
inline comment on the flagged line::

    from repro.check.sanitize import SanitizerSuite  # arch: allow[lazy import breaks the core<->check cycle]
    store.write(off, blob)  # costflow: allow[preconditioning moves no simulated-time bytes]

The reason string inside the brackets is mandatory: a waiver without a
justification is itself an error, and so is a waiver that no finding
ever consumed (``unused-waiver``) — dead waivers would otherwise
silently disable future findings on that line.  Used waivers are not
silent either: analyses report them (as non-fatal notes) so the
exception list stays visible in every run.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: ``# <tool>: allow[reason]`` — tool is ``arch``, ``costflow``,
#: ``conc`` or ``durflow``.
_WAIVER_RE = re.compile(
    r"#\s*(arch|costflow|conc|durflow):\s*allow\[([^\]]*)\]"
)


@dataclass
class Violation:
    """One finding of any pass."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "rule": self.rule, "message": self.message}


class Findings:
    """Finding accumulator deduplicated on (path, line, rule); waivers
    are applied once the pass has seen the whole program."""

    def __init__(self) -> None:
        self.items: List[Tuple[str, int, str, str]] = []
        self._seen: Set[Tuple[str, int, str]] = set()

    def add(self, path: str, line: int, rule: str, message: str) -> None:
        key = (path, line, rule)
        if key in self._seen:
            return
        self._seen.add(key)
        self.items.append((path, line, rule, message))

    def unwaived(
        self, waivers: "WaiverSet", prewaived: Tuple[str, ...] = ()
    ) -> List[Violation]:
        """Every finding no waiver on its line covers.  Rules in
        ``prewaived`` had their waivers applied by the pass already."""
        return [
            Violation(path, line, rule, message)
            for path, line, rule, message in self.items
            if rule in prewaived or waivers.consume(path, line) is None
        ]


@dataclass
class Waiver:
    """One inline ``# tool: allow[reason]`` comment."""

    path: str
    line: int
    tool: str
    reason: str
    used: bool = False

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.tool}: allow[{self.reason}]"


@dataclass
class WaiverSet:
    """All waivers of one tool in one analyzed tree, keyed by line."""

    tool: str
    by_location: Dict[str, Dict[int, Waiver]] = field(default_factory=dict)

    def add(self, waiver: Waiver) -> None:
        self.by_location.setdefault(waiver.path, {})[waiver.line] = waiver

    def consume(self, path: str, line: int) -> Optional[Waiver]:
        """Mark the waiver covering ``path:line`` used, if one exists."""
        waiver = self.by_location.get(path, {}).get(line)
        if waiver is not None:
            waiver.used = True
        return waiver

    def all(self) -> List[Waiver]:
        return [
            w
            for _, per_line in sorted(self.by_location.items())
            for _, w in sorted(per_line.items())
        ]

    def finish(
        self, violations: List[Violation], why: str, masks: str = "violations"
    ) -> List[str]:
        """Close a pass: append the hygiene findings to ``violations``
        (an empty reason must say *why* ``why``; a waiver nothing
        consumed masks future ``masks``), sort them, and return the
        used waivers rendered for the report."""
        for w in self.all():
            if not w.reason.strip():
                message = (
                    f"{self.tool} waiver has an empty justification — "
                    f"say *why* {why}"
                )
            elif not w.used:
                message = (
                    f"{self.tool} waiver allow[{w.reason}] suppresses "
                    f"nothing — delete it (dead waivers mask future {masks})"
                )
            else:
                continue
            violations.append(Violation(w.path, w.line, "unused-waiver", message))
        violations.sort(key=lambda v: (v.path, v.line, v.rule))
        return [w.render() for w in self.all() if w.used]


def scan_waivers(source: bytes) -> List[Tuple[int, str, str]]:
    """Every ``# tool: allow[...]`` comment of ``source`` as
    ``(line, tool, reason)``.

    Tokenized, not line-scanned: the marker text may legitimately appear
    inside docstrings and message strings (this package documents its
    own waiver syntax), and only a real comment grants a waiver.
    """
    return [
        (tok.start[0], match.group(1), match.group(2))
        for tok in tokenize.tokenize(io.BytesIO(source).readline)
        if tok.type == tokenize.COMMENT
        for match in _WAIVER_RE.finditer(tok.string)
    ]
