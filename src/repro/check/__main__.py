"""CLI entry point for the checkers.

``python -m repro.check lint [paths] [--format json] [--graph-out P]``
runs the purity lint plus the whole-program analyses; ``arch``,
``costflow``, ``conc`` and ``durflow`` run each analysis alone (same
exit-code contract).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.check import lint

_USAGE = (
    "usage: python -m repro.check {lint,arch,costflow,conc,durflow} [options]\n"
    "  lint      purity lint + arch + costflow + conc + durflow (--format json, --graph-out P)\n"
    "  arch      layer-manifest / import-cycle analysis only\n"
    "  costflow  must-charge byte-flow analysis only\n"
    "  conc      static concurrency analysis only (--graph-out P, --baseline F)\n"
    "  durflow   static durability-ordering analysis only (--graph-out P, --baseline F)"
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, file=sys.stderr)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "lint":
        return lint.main(rest)
    if command in lint.PASSES:
        return lint.run_pass(command, rest)
    print(f"repro.check: unknown command {command!r}", file=sys.stderr)
    print(_USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
