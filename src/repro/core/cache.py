"""Node cache for the B-epsilon-tree environment.

One cache is shared by all trees in an environment (like TokuDB's
cachetable).  Nodes are kept by globally-unique node id; eviction is
LRU over unpinned nodes, writing back dirty victims through a
per-tree writer callback.

The byte total is kept incrementally.  A node's size can only change
while the tree holds it, and the tree only holds nodes it obtained
through :meth:`NodeCache.get` or :meth:`NodeCache.put` since the last
:meth:`NodeCache.memory_used` (one exception, a basement loaded into an
already-cached leaf, calls :meth:`NodeCache.touch`).  So
``memory_used`` re-measures just those touched nodes against the size
it last recorded for each id, instead of re-summing the whole cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.node import Node


class NodeCache:
    """Shared LRU node cache with pinning and dirty write-back."""

    def __init__(self, budget_bytes: int) -> None:
        self.budget = budget_bytes
        #: node_id -> (node, owner) in LRU order (oldest first).
        self._nodes: "OrderedDict[int, Tuple[Node, object]]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        #: node_id -> nbytes() as last measured; sums to ``_used``.
        self._sizes: Dict[int, int] = {}
        #: Ids handed out (get/put/touch) since the last measurement.
        self._touched: Set[int] = set()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        #: Optional sanitizer suite (pure observer; see repro.check).
        self.san = None

    # ------------------------------------------------------------------
    def get(self, node_id: int) -> Optional[Node]:
        entry = self._nodes.get(node_id)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._nodes.move_to_end(node_id)
        self._touched.add(node_id)
        return entry[0]

    def put(self, node: Node, owner: object) -> None:
        if self.san is not None:
            existing = self._nodes.get(node.node_id)
            self.san.on_cache_put(self, node, existing[0] if existing else None)
        self._nodes[node.node_id] = (node, owner)
        self._nodes.move_to_end(node.node_id)
        self._touched.add(node.node_id)

    def touch(self, node_id: int) -> None:
        """Note that a cached node changed size without a get/put."""
        self._touched.add(node_id)

    def pin(self, node_id: int) -> None:
        if self.san is not None:
            self.san.on_pin(node_id)
        self._pins[node_id] = self._pins.get(node_id, 0) + 1

    def unpin(self, node_id: int) -> None:
        if self.san is not None:
            self.san.on_unpin(node_id)
        count = self._pins.get(node_id, 0) - 1
        if count <= 0:
            self._pins.pop(node_id, None)
        else:
            self._pins[node_id] = count

    def pinned(self, node_id: int) -> bool:
        return self._pins.get(node_id, 0) > 0

    def remove(self, node_id: int) -> None:
        if self._nodes.pop(node_id, None) is not None:
            self._forget(node_id)

    def _forget(self, node_id: int) -> None:
        self._used -= self._sizes.pop(node_id, 0)
        self._touched.discard(node_id)

    def memory_used(self) -> int:
        sizes = self._sizes
        for node_id in self._touched:
            entry = self._nodes.get(node_id)
            if entry is None:
                continue
            size = entry[0].nbytes()
            self._used += size - sizes.get(node_id, 0)
            sizes[node_id] = size
        self._touched.clear()
        return self._used

    # ------------------------------------------------------------------
    def evict_to_fit(
        self,
        writer: Callable[[object, Node], None],
        on_evict: Optional[Callable[[object, Node], None]] = None,
    ) -> None:
        """Evict LRU unpinned nodes until within budget.

        ``writer(owner, node)`` persists a dirty victim; ``on_evict``
        runs for every victim (releases simulated buffer memory).
        """
        if not self._nodes:
            return
        used = self.memory_used()
        if self.san is not None:
            self.san.on_cache_measured(self)
        if used <= self.budget:
            return
        # Leaves are evicted before internal nodes (like the TokuDB
        # cachetable): internal nodes are tiny relative to the data
        # they index and re-reading them costs a random I/O per query.
        # The LRU walk is lazy and victims leave the map after it, so
        # an eviction costs the victims it takes, not the cache size.
        victims: List[int] = []
        for want_leaf in (True, False):
            for node_id, (node, owner) in self._nodes.items():
                if used <= self.budget:
                    break
                if node.is_leaf is not want_leaf or self.pinned(node_id):
                    continue
                if node.dirty:
                    writer(owner, node)
                    self.dirty_evictions += 1
                if self.san is not None:
                    self.san.on_evict(self, node, self.pinned(node_id))
                # The writer may have loaded basements: re-measure.
                used -= node.nbytes()
                victims.append(node_id)
                self.evictions += 1
                if on_evict is not None:
                    on_evict(owner, node)
        for node_id in victims:
            del self._nodes[node_id]
            self._forget(node_id)

    def dirty_nodes(self):
        """Iterate (owner, node) over all dirty cached nodes."""
        for node, owner in list(self._nodes.values()):
            if node.dirty:
                yield owner, node

    def all_nodes(self):
        for node, owner in list(self._nodes.values()):
            yield owner, node

    def clear(self) -> None:
        self._nodes.clear()
        self._pins.clear()
        self._sizes.clear()
        self._touched.clear()
        self._used = 0
