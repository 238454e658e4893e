"""Strongly connected components for the checkers' graphs.

One helper serves the import graph (:mod:`repro.check.arch` cycles),
the lock-class graph (:mod:`repro.check.conc` lock-order cycles) and
the call graph (:mod:`repro.check.costflow` coverage condensation).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple


def sccs(nodes: Iterable[str], succ: Callable[[str], Iterable[str]]) -> List[List[str]]:
    """Every SCC of the graph, each sorted, in sorted order.

    Iterative Tarjan (recursion depth would grow with the graph);
    ``succ(v)`` may name nodes outside ``nodes``, which then join the
    graph."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    work: List[Tuple[str, Iterator[str]]] = []

    def enter(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(succ(v))))

    for root in sorted(nodes):
        if root in index:
            continue
        enter(root)
        while work:
            node, it = work[-1]
            for w in it:
                if w not in index:
                    enter(w)
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    out.append(sorted(comp))
    return sorted(out)


def cycles(nodes: Iterable[str], succ: Callable[[str], Iterable[str]]) -> List[List[str]]:
    """The SCCs that hold a cycle: two or more nodes, or one node with
    an edge to itself."""
    return [c for c in sccs(nodes, succ) if len(c) > 1 or c[0] in succ(c[0])]
