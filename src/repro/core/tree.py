"""The B-epsilon-tree.

Write path: updates are encoded as messages and inserted into the root
node's buffer; when a buffer fills, a batch of messages is *flushed* to
the child with the most pending bytes, recursing as needed (§2.1).
PacMan compaction runs on every flush.  At the leaves, messages are
applied to basement nodes in MSN order.

Read path: a point query walks the root-to-leaf path, collecting the
pending messages that affect the key, and applies them to the leaf's
value.  The *apply-on-query* heuristic additionally pushes pending
messages into cached leaves; BetrFS v0.6 replaces the eager HDD-era
policy with a lazy one (§4, +QRY).

All CPU work (key comparisons, message moves, serialization, memory
allocation) and all I/O is charged to the environment's simulated
clock, which is how the paper's performance effects emerge.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core import pacman
from repro.core.messages import (
    Delete,
    Insert,
    InsertByRef,
    Message,
    PageFrame,
    Patch,
    PointMessage,
    RangeDelete,
    Value,
    release_message,
    value_len,
)
from repro.check.errors import TreeInvariantError, require
from repro.core.node import BasementNode, InternalNode, LeafNode, Node
import zlib as _zlib

from repro.core.serialize import (
    decode_basement,
    decode_leaf_header,
    decode_node,
    serialize_node,
)

#: Magic prefix of a compressed on-disk node.
COMPRESSED_MAGIC = b"BFCZ"
from repro.core.checkpoint import BlockManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import KVEnv


@dataclass
class TreeStats:
    """Counters for one tree's behaviour."""

    inserts: int = 0
    deletes: int = 0
    patches: int = 0
    range_deletes: int = 0
    queries: int = 0
    range_queries: int = 0
    flushes: int = 0
    leaf_splits: int = 0
    internal_splits: int = 0
    root_splits: int = 0
    node_reads: int = 0
    node_writes: int = 0
    bytes_node_read: int = 0
    bytes_node_written: int = 0
    partial_leaf_loads: int = 0
    basement_loads: int = 0
    messages_flushed: int = 0
    messages_applied: int = 0
    aoq_examined: int = 0
    aoq_applied: int = 0
    aoq_moved: int = 0
    readahead_issued: int = 0
    readahead_hits: int = 0
    pacman: pacman.PacmanStats = field(default_factory=pacman.PacmanStats)


class BeTree:
    """One B-epsilon-tree index stored in one southbound file."""

    def __init__(
        self,
        env: "KVEnv",
        tree_id: int,
        file_name: str,
        root_id: Optional[int] = None,
        blockman: Optional[BlockManager] = None,
    ) -> None:
        self.env = env
        self.tree_id = tree_id
        self.file_name = file_name
        self.cfg = env.config
        self.clock = env.clock
        self.costs = env.costs
        self.alloc = env.alloc
        self.storage = env.storage
        self.cache = env.cache
        self.stats = TreeStats()
        self.san = getattr(env, "san", None)
        obs = getattr(env, "obs", None)
        self._tracer = env._tracer if obs is not None else None
        self._lat_query = None
        if obs is not None:
            obs.register_object(f"tree.{file_name}", self.stats, layer="tree")
            self._lat_query = obs.latency(
                "tree.query_latency", layer="tree", tree=file_name
            )
        if blockman is not None:
            self.blockman = blockman
        else:
            self.blockman = BlockManager(self.storage.file_size(file_name))
        if root_id is not None:
            # Reopened tree: the root is on disk.
            self.root_id = root_id
        else:
            root = LeafNode(env.new_node_id())
            self.root_id = root.node_id
            self.cache.put(root, self)
        #: Outstanding read-ahead completions: node_id -> Completion.
        self._prefetched: dict = {}
        #: Partial-leaf decode context: node_id -> (extent_off, prefix).
        self._partial_meta: dict = {}

    # ==================================================================
    # Public write operations
    # ==================================================================
    def put(self, key: bytes, value: Value, by_ref: bool = False) -> None:
        """Insert/overwrite ``key`` (blind write)."""
        self.stats.inserts += 1
        if by_ref:
            if not isinstance(value, PageFrame):
                raise TypeError("by_ref insert requires a PageFrame")
            msg: PointMessage = InsertByRef(key, value, self.env.new_msn())
        else:
            if isinstance(value, PageFrame):
                # Copying mode: the page is copied into the message.
                self.clock.cpu(self.costs.memcpy(len(value.data)))
                value = PageFrame(value.data)
            msg = Insert(key, value, self.env.new_msn())
        self._enqueue_root(msg)

    def delete(self, key: bytes) -> None:
        self.stats.deletes += 1
        self._enqueue_root(Delete(key, self.env.new_msn()))

    def patch(self, key: bytes, offset: int, data: bytes) -> None:
        """Blind sub-value write (no read-modify-write)."""
        self.stats.patches += 1
        self._enqueue_root(Patch(key, offset, data, self.env.new_msn()))

    def range_delete(self, start: bytes, end: bytes) -> None:
        """Atomically delete every key in [start, end)."""
        if start >= end:
            return
        self.stats.range_deletes += 1
        self._enqueue_root(RangeDelete(start, end, self.env.new_msn()))

    # ==================================================================
    # Public read operations
    # ==================================================================
    def get(self, key: bytes, seq_hint: bool = False) -> Optional[Value]:
        """Point query; ``seq_hint`` enables tree-level read-ahead."""
        if self._lat_query is None:
            return self._get_impl(key, seq_hint)
        t0 = self.clock.now
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("tree.query", "tree") as sp:
                value = self._get_impl(key, seq_hint)
                sp.args["tree"] = self.file_name
        else:
            value = self._get_impl(key, seq_hint)
        self._lat_query.observe(self.clock.now - t0)
        return value

    def _get_impl(self, key: bytes, seq_hint: bool) -> Optional[Value]:
        self.stats.queries += 1
        self.clock.cpu(self.costs.query_overhead)
        path: List[InternalNode] = []
        pending: List[Message] = []
        bound_lo: Optional[bytes] = None
        bound_hi: Optional[bytes] = None
        node = self._load_node(self.root_id)
        while isinstance(node, InternalNode):
            self._charge_pivot_search(node)
            found = node.pending_for_key(key)
            self._charge_buffer_probe(node, len(found))
            pending.extend(found)
            path.append(node)
            idx = node.child_index_for(key)
            child_id = node.children[idx]
            lo, hi = node.child_range(idx)
            if lo is not None and (bound_lo is None or lo > bound_lo):
                bound_lo = lo
            if hi is not None and (bound_hi is None or hi < bound_hi):
                bound_hi = hi
            parent_of_leaf = (node, idx) if node.height == 1 else None
            node = self._load_node(
                child_id, for_key=key, allow_partial=not seq_hint
            )
            if (
                seq_hint
                and self.cfg.tree_readahead
                and parent_of_leaf is not None
            ):
                # §3.2: while the caller consumes this leaf, prefetch
                # the next one (issued *after* the current read so it
                # queues behind it).
                self._issue_leaf_readahead(parent_of_leaf[0], parent_of_leaf[1] + 1)
        leaf = node
        require(
            isinstance(leaf, LeafNode),
            "descent ended on a non-leaf node",
            TreeInvariantError,
            type(leaf).__name__,
        )
        basement = self._basement_for_query(leaf, key, seq_hint)
        present, base, base_msn = basement.get_with_msn(key)
        self.clock.cpu(
            self.costs.key_compare * (1 + math.log2(len(basement) + 1))
        )
        value = self._apply_pending(base if present else None, pending, base_msn)

        affected = any(self._affects_key(m, key) for m in pending)
        if path:
            if not self.cfg.lazy_apply_on_query:
                self._apply_on_query_eager(
                    path, leaf, basement, bound_lo, bound_hi
                )
            elif affected:
                self._apply_on_query_lazy(path, leaf, key)
        return value

    def range_query(
        self,
        start: bytes,
        end: bytes,
        limit: Optional[int] = None,
    ) -> List[Tuple[bytes, Value]]:
        """All live key-value pairs in [start, end), in key order."""
        self.stats.range_queries += 1
        self.clock.cpu(self.costs.query_overhead)
        results: List[Tuple[bytes, Value]] = []
        self._scan(self.root_id, start, end, [], results, limit)
        return results

    def empty_range(self, start: bytes, end: bytes) -> bool:
        """True if no live keys exist in [start, end)."""
        return not self.range_query(start, end, limit=1)

    def seek(
        self, start: bytes, end: bytes
    ) -> Optional[Tuple[bytes, Value]]:
        """First live pair with ``start <= key < end`` (cursor seek)."""
        rows = self.range_query(start, end, limit=1)
        return rows[0] if rows else None

    # ==================================================================
    # Root ingestion and flushing
    # ==================================================================
    def _enqueue_root(self, msg: Message) -> None:
        self.clock.cpu(self.costs.message_overhead)
        self.alloc.note_message(msg.nbytes())
        self.env.note_write()
        root = self._load_node(self.root_id)
        if isinstance(root, LeafNode):
            self._apply_to_leaf(root, [msg], None)
            self._maybe_split_root_leaf(root)
            return
        require(
            isinstance(root, InternalNode),
            "root has height > 0 but is not internal",
            TreeInvariantError,
            type(root).__name__,
        )
        self._enqueue_internal(root, msg)
        if root.buffer_bytes > self.cfg.buffer_size:
            self._flush_node(root)
            self._maybe_split_root_internal(root)

    def _enqueue_internal(self, node: InternalNode, msg: Message) -> None:
        """Add one message to a node buffer, modeling buffer growth."""
        needed = node.buffer_bytes + msg.nbytes()
        buf = node.mem_buf
        if buf is None:
            node.mem_buf = self.alloc.alloc(
                self.alloc.suggested_capacity(max(4096, needed))
            )
        elif needed > buf.capacity:
            node.mem_buf = self.alloc.grow_doubling(
                buf, needed, used=node.buffer_bytes
            )
        node.enqueue(msg)
        node.dirty = True

    def _flush_node(self, node: InternalNode) -> None:
        """Flush batches out of ``node`` until its buffer is small enough."""
        guard = 0
        while node.buffer_bytes > self.cfg.buffer_size and node.buffer:
            guard += 1
            if guard > 65536:  # pragma: no cover - safety valve
                raise RuntimeError("flush did not converge")
            before = node.buffer_bytes
            self._flush_one_batch(node)
            if node.buffer_bytes >= before:
                break  # nothing routable (single stuck message)

    def _flush_one_batch(self, node: InternalNode) -> None:
        # Critical section (reentrancy audit, repro.sched): between the
        # buffer drain and the child application/split the tree is
        # inconsistent; no session switch may observe it.
        self.env.enter_critical()
        try:
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                with tracer.span("tree.flush_batch", "tree") as sp:
                    self._flush_one_batch_impl(node)
                    sp.args["tree"] = self.file_name
            else:
                self._flush_one_batch_impl(node)
        finally:
            self.env.exit_critical()

    def _flush_one_batch_impl(self, node: InternalNode) -> None:
        self.stats.flushes += 1
        self.clock.cpu(self.costs.flush_overhead)
        idx = node.fattest_child()
        # Charging for the fattest-child scan (per message routed).
        self.clock.cpu(self.costs.key_compare * len(node.buffer))
        msgs = node.messages_for_child(idx)
        if not msgs:
            return
        original = list(msgs)
        if self.cfg.pacman:
            # PacMan runs over the flushed child's buffer partition
            # (TokuDB buffers are partitioned per child).  A recursive
            # deletion routes everything to one child, so the §4
            # quadratic pathology is fully preserved; scattered
            # keyspaces compact in per-child slices.
            msgs, comparisons = pacman.compact(msgs, self.stats.pacman)
            self.clock.cpu(self.costs.pacman_compare * comparisons)
        child = self._load_node(node.children[idx])
        # Dropped messages were already released by PacMan; survivors
        # move down by reference.
        node.remove_messages(original, release=False)
        node.dirty = True
        self._charge_message_move(msgs)
        self.stats.messages_flushed += len(msgs)
        if isinstance(child, LeafNode):
            self._apply_to_leaf(child, msgs, node)
        else:
            require(
                isinstance(child, InternalNode),
                "flush target is neither leaf nor internal",
                TreeInvariantError,
                type(child).__name__,
            )
            for msg in msgs:
                self._enqueue_internal(child, msg)
            if child.buffer_bytes > self.cfg.buffer_size:
                self._flush_node(child)
            if len(child.children) > self.cfg.fanout:
                self._split_internal_child(node, idx, child)
        if self.san is not None:
            self.san.on_flush(self, node, idx, child)

    def _charge_message_move(self, msgs: List[Message]) -> None:
        """CPU cost of moving messages one level down.

        Without page sharing the complete data is memcpy-ed at each
        level (§2.3); with page sharing (§6) page values move by
        reference and only headers/keys are copied.
        """
        for msg in msgs:
            if self.cfg.page_sharing and isinstance(msg, (InsertByRef,)):
                self.clock.cpu(
                    self.costs.memcpy(PointMessage.HEADER + len(msg.key))
                )
            elif (
                self.cfg.page_sharing
                and isinstance(msg, Insert)
                and isinstance(msg.value, PageFrame)
            ):
                self.clock.cpu(
                    self.costs.memcpy(PointMessage.HEADER + len(msg.key))
                )
            else:
                # The copying path re-serializes the complete message
                # (key + value) into the next level's buffer (§2.3:
                # "the complete data is always memcpy-ed at each
                # level", including mempool bookkeeping).
                self.clock.cpu(self.costs.serialize(msg.nbytes()))

    # ------------------------------------------------------------------
    # Leaf application and splits
    # ------------------------------------------------------------------
    def _apply_to_leaf(
        self,
        leaf: LeafNode,
        msgs: List[Message],
        parent: Optional[InternalNode],
    ) -> None:
        self._ensure_fully_loaded(leaf)
        for msg in sorted(msgs, key=lambda m: m.msn):
            if isinstance(msg, RangeDelete):
                # Per-pair MSNs make this safe against out-of-order
                # arrival: only pairs older than the range delete die.
                removed = leaf.apply_range_delete(msg)
                self.clock.cpu(
                    self.costs.range_check * max(1, len(leaf.basements))
                    + self.costs.message_apply * max(1, removed)
                )
            else:
                self.clock.cpu(self.costs.message_apply)
                if not self.cfg.page_sharing:
                    val = getattr(msg, "value", None)
                    if val is not None:
                        self.clock.cpu(self.costs.memcpy(value_len(val)))
                leaf.apply(msg, self.cfg.basement_size)
                release_message(msg)
            leaf.msn_max = max(leaf.msn_max, msg.msn)
            self.stats.messages_applied += 1
        leaf.prune_empty_basements()
        leaf.dirty = True
        if parent is not None:
            self._maybe_split_leaf(leaf, parent)

    def _maybe_split_leaf(self, leaf: LeafNode, parent: InternalNode) -> None:
        while leaf.nbytes() > self.cfg.node_size and leaf.pair_count() > 1:
            right, pivot = leaf.split(self.env.new_node_id())
            self.stats.leaf_splits += 1
            self.clock.cpu(self.costs.flush_overhead)
            self.cache.put(right, self)
            idx = parent.children.index(leaf.node_id)
            parent.add_child(pivot, right.node_id, idx)
            parent.dirty = True
            if self.san is not None:
                self.san.on_split(self, leaf, right, pivot, parent)
            leaf = right  # right half may still be oversized

    def _maybe_split_root_leaf(self, root: LeafNode) -> None:
        if root.nbytes() <= self.cfg.node_size or root.pair_count() <= 1:
            return
        self.env.enter_critical()
        try:
            self._split_root_leaf(root)
        finally:
            self.env.exit_critical()

    def _split_root_leaf(self, root: LeafNode) -> None:
        right, pivot = root.split(self.env.new_node_id())
        self.stats.leaf_splits += 1
        self.stats.root_splits += 1
        new_root = InternalNode(self.env.new_node_id(), height=1)
        new_root.pivots = [pivot]
        new_root.children = [root.node_id, right.node_id]
        new_root.mem_buf = self.alloc.alloc(4096)
        self.cache.put(right, self)
        self.cache.put(new_root, self)
        self.root_id = new_root.node_id
        if self.san is not None:
            self.san.on_split(self, root, right, pivot, new_root)

    def _maybe_split_root_internal(self, root: InternalNode) -> None:
        if len(root.children) <= self.cfg.fanout:
            return
        self.env.enter_critical()
        try:
            self._split_root_internal(root)
        finally:
            self.env.exit_critical()

    def _split_root_internal(self, root: InternalNode) -> None:
        right, pivot = root.split(self.env.new_node_id())
        right.mem_buf = self.alloc.alloc(max(4096, right.buffer_bytes))
        self.stats.internal_splits += 1
        self.stats.root_splits += 1
        new_root = InternalNode(self.env.new_node_id(), root.height + 1)
        new_root.pivots = [pivot]
        new_root.children = [root.node_id, right.node_id]
        new_root.mem_buf = self.alloc.alloc(4096)
        self.cache.put(right, self)
        self.cache.put(new_root, self)
        self.root_id = new_root.node_id
        if self.san is not None:
            self.san.on_split(self, root, right, pivot, new_root)

    def _split_internal_child(
        self, parent: InternalNode, idx: int, child: InternalNode
    ) -> None:
        right, pivot = child.split(self.env.new_node_id())
        right.mem_buf = self.alloc.alloc(max(4096, right.buffer_bytes))
        self.stats.internal_splits += 1
        self.clock.cpu(self.costs.flush_overhead)
        self.cache.put(right, self)
        parent.add_child(pivot, right.node_id, idx)
        parent.dirty = True
        if self.san is not None:
            self.san.on_split(self, child, right, pivot, parent)

    # ==================================================================
    # Query helpers
    # ==================================================================
    def _charge_pivot_search(self, node: InternalNode) -> None:
        steps = 1 + math.log2(len(node.children) + 1)
        self.clock.cpu(self.costs.pivot_search_step * steps)

    def _charge_buffer_probe(self, node: InternalNode, matches: int) -> None:
        """Cost of finding the pending messages for one key in a buffer.

        Point and range messages are kept in ordered structures (OMTs);
        a probe pays a logarithmic search plus one interval check per
        candidate found.  (Range messages are still costlier than
        points: overlapping intervals defeat simple indexing, which is
        why range-heavy paths like eager apply-on-query burn CPU, §4.)
        """
        n_points = len(node.point_index)
        self.clock.cpu(self.costs.key_compare * (1 + math.log2(n_points + 1)))
        self.clock.cpu(
            self.costs.range_check
            * (1 + math.log2(len(node.range_msgs) + 1) + matches)
        )

    @staticmethod
    def _affects_key(msg: Message, key: bytes) -> bool:
        if isinstance(msg, RangeDelete):
            return msg.covers_key(key)
        return msg.key == key  # type: ignore[attr-defined]

    def _apply_pending(
        self,
        base: Optional[Value],
        pending: List[Message],
        base_msn: int,
    ) -> Optional[Value]:
        """Materialize the queried value from base + pending messages.

        ``base_msn`` is the MSN of the pair the leaf currently holds;
        pending messages at or below it are stale copies of work that
        already reached the leaf.
        """
        value = base
        for msg in sorted(pending, key=lambda m: m.msn):
            if msg.msn <= base_msn:
                continue
            self.clock.cpu(self.costs.message_apply)
            if isinstance(msg, RangeDelete):
                value = None
            elif isinstance(msg, Insert):
                value = msg.value
            elif isinstance(msg, InsertByRef):
                value = msg.frame
            elif isinstance(msg, Delete):
                value = None
            elif isinstance(msg, Patch):
                value = msg.apply_to(value)
        return value

    def _basement_range(
        self, leaf: LeafNode, idx: int
    ) -> Tuple[Optional[bytes], Optional[bytes]]:
        lo = leaf.basements[idx].first_key()
        hi = None
        if idx + 1 < len(leaf.basements):
            hi = leaf.basements[idx + 1].first_key()
        return lo, hi

    def _basement_for_query(
        self, leaf: LeafNode, key: bytes, seq_hint: bool
    ) -> BasementNode:
        idx = leaf.basement_index_for(key)
        basement = leaf.basements[idx]
        if not basement.loaded:
            self._load_basement(leaf, idx)
            basement = leaf.basements[idx]
        if seq_hint and self.cfg.tree_readahead:
            # Prefetch the next basements of this leaf (cheap: they are
            # usually already in the node extent read).
            for nxt in (idx + 1, idx + 2):
                if nxt < len(leaf.basements) and not leaf.basements[nxt].loaded:
                    self._load_basement(leaf, nxt)
        return basement

    # ------------------------------------------------------------------
    # Apply-on-query (§4)
    # ------------------------------------------------------------------
    def _apply_on_query_eager(
        self,
        path: List[InternalNode],
        leaf: LeafNode,
        basement: BasementNode,
        bound_lo: Optional[bytes],
        bound_hi: Optional[bytes],
    ) -> None:
        """HDD-era policy: on every query, push down / pre-apply all
        pending messages targeting the queried basement (clean leaf) or
        the whole leaf (dirty leaf) — CPU-hungry on an SSD.

        ``bound_lo``/``bound_hi`` are the leaf's key range implied by
        the pivots on the descent path; messages outside them belong to
        other leaves and must never be moved here.
        """
        if leaf.dirty:
            lo, hi = bound_lo, bound_hi  # the whole leaf
        else:
            idx = leaf.basements.index(basement)
            lo, hi = self._basement_range(leaf, idx)
            if bound_lo is not None and (lo is None or lo < bound_lo):
                lo = bound_lo
            if bound_hi is not None and (hi is None or hi > bound_hi):
                hi = bound_hi
        to_move: List[Message] = []
        charged_only = 0
        for node in path:
            relevant: List[Message] = []
            # Point messages come from the buffer's ordered index
            # (O(log n + k)); every buffered *range* message must be
            # checked individually — overlapping intervals have no
            # cheap index (the heart of the §4 pathology).
            n_points = len(node.point_index)
            self.clock.cpu(self.costs.key_compare * 2 * math.log2(n_points + 2))
            for key in node.point_keys_in_range(lo, hi):
                msgs = node.point_index.get(key, ())
                self.stats.aoq_examined += len(msgs)
                self.clock.cpu(self.costs.key_compare * len(msgs))
                relevant.extend(msgs)
            for msg in node.range_msgs:
                self.stats.aoq_examined += 1
                self.clock.cpu(self.costs.range_check)
                if self._range_overlaps(msg, lo, hi):
                    relevant.append(msg)
            if not relevant:
                continue
            if leaf.dirty:
                # Move messages into the leaf ("flush").  A range
                # message extending beyond the leaf's bounds still owes
                # deletions to sibling leaves and must stay.
                movable = [
                    m
                    for m in relevant
                    if not isinstance(m, RangeDelete)
                    or self._range_within(m, lo, hi)
                ]
                charged_only += len(relevant) - len(movable)
                if movable:
                    node.remove_messages(movable, release=False)
                    node.dirty = True
                    to_move.extend(movable)
            else:
                charged_only += len(relevant)
        if to_move:
            # Apply once, across all path nodes, in MSN order — patches
            # are not commutative, so per-node application would be
            # incorrect.
            self._apply_to_leaf(leaf, to_move, None)
            self.stats.aoq_moved += len(to_move)
        for _ in range(charged_only):
            # Materialized-view work: CPU is spent, tree state unchanged.
            self.clock.cpu(self.costs.message_apply)
            self.stats.aoq_applied += 1

    def _apply_on_query_lazy(
        self, path: List[InternalNode], leaf: LeafNode, key: bytes
    ) -> None:
        """§4 +QRY policy: only move/apply the messages that affected
        this query's key."""
        to_move: List[Message] = []
        for node in path:
            relevant = [m for m in node.buffer if self._affects_key(m, key)]
            if not relevant:
                continue
            if leaf.dirty:
                point_only = [m for m in relevant if not m.is_range]
                if point_only:
                    node.remove_messages(point_only, release=False)
                    node.dirty = True
                    to_move.extend(point_only)
            else:
                for _ in relevant:
                    self.clock.cpu(self.costs.message_apply)
                    self.stats.aoq_applied += 1
        if to_move:
            self._apply_to_leaf(leaf, to_move, None)
            self.stats.aoq_moved += len(to_move)

    @staticmethod
    def _range_overlaps(
        msg: RangeDelete, lo: Optional[bytes], hi: Optional[bytes]
    ) -> bool:
        if lo is not None and msg.end <= lo:
            return False
        if hi is not None and msg.start >= hi:
            return False
        return True

    @staticmethod
    def _range_within(
        msg: RangeDelete, lo: Optional[bytes], hi: Optional[bytes]
    ) -> bool:
        if lo is not None and msg.start < lo:
            return False
        if hi is not None and msg.end > hi:
            return False
        return True

    # ------------------------------------------------------------------
    # Range scan
    # ------------------------------------------------------------------
    def _scan(
        self,
        node_id: int,
        start: bytes,
        end: bytes,
        pending: List[Message],
        results: List[Tuple[bytes, Value]],
        limit: Optional[int],
    ) -> None:
        node = self._load_node(node_id)
        if isinstance(node, LeafNode):
            self._scan_leaf(node, start, end, pending, results, limit)
            return
        require(
            isinstance(node, InternalNode),
            "scan met a node that is neither leaf nor internal",
            TreeInvariantError,
            type(node).__name__,
        )
        self._charge_pivot_search(node)
        # Extract buffered messages overlapping the scan range: point
        # messages via the ordered index, range messages one by one.
        relevant: List[Message] = []
        n_points = len(node.point_index)
        self.clock.cpu(self.costs.key_compare * 2 * math.log2(n_points + 2))
        for key in node.point_keys_in_range(start, end):
            msgs = node.point_index.get(key, ())
            self.clock.cpu(self.costs.key_compare * len(msgs))
            relevant.extend(msgs)
        n_ranges = len(node.range_msgs)
        matches = 0
        for msg in node.range_msgs:
            if msg.overlaps(start, end):
                relevant.append(msg)
                matches += 1
        self.clock.cpu(
            self.costs.range_check * (1 + math.log2(n_ranges + 1) + matches)
        )
        lo_idx = node.child_index_for(start)
        hi_idx = node.child_index_for(end)
        for idx in range(lo_idx, min(hi_idx + 1, len(node.children))):
            if limit is not None and len(results) >= limit:
                return
            if node.height == 1:
                # Load the current leaf first, then queue the prefetch
                # of the next one behind it (§3.2).
                self._load_node(node.children[idx])
                if self.cfg.tree_readahead and idx + 1 <= hi_idx:
                    self._issue_leaf_readahead(node, idx + 1)
            self._scan(node.children[idx], start, end, pending + relevant, results, limit)

    def _scan_leaf(
        self,
        leaf: LeafNode,
        start: bytes,
        end: bytes,
        pending: List[Message],
        results: List[Tuple[bytes, Value]],
        limit: Optional[int],
    ) -> None:
        self._ensure_fully_loaded(leaf)
        # Materialize: collect base pairs (with their MSNs) in range,
        # then overlay pending messages in MSN order.  For small-limit
        # scans (cursor seeks) only a bounded candidate window is
        # materialized; pending deletes can shrink it, in which case we
        # retry with a wider window.
        cap: Optional[int] = None
        if limit is not None:
            cap = limit + len(pending) + 8
        while True:
            view = self._materialize_leaf_view(leaf, start, end, cap)
            candidates = len(view)
            self._overlay_pending(view, pending, start, end)
            if (
                cap is None
                or len(view) >= (limit or 0)
                or candidates < cap
            ):
                break
            cap *= 4  # deletes ate the window; widen and retry
        for key in sorted(view):
            if limit is not None and len(results) >= limit:
                return
            results.append((key, view[key][0]))

    def _materialize_leaf_view(
        self,
        leaf: LeafNode,
        start: bytes,
        end: bytes,
        cap: Optional[int],
    ) -> dict:
        view: dict = {}
        for basement in leaf.basements:
            lo = bisect.bisect_left(basement.keys, start)
            hi = bisect.bisect_left(basement.keys, end)
            if cap is not None:
                hi = min(hi, lo + max(0, cap - len(view)))
            for i in range(lo, hi):
                view[basement.keys[i]] = (basement.values[i], basement.msns[i])
            self.clock.cpu(self.costs.key_compare * (hi - lo + 2))
            if cap is not None and len(view) >= cap:
                break
        return view

    def _overlay_pending(
        self,
        view: dict,
        pending: List[Message],
        start: bytes,
        end: bytes,
    ) -> None:
        for msg in sorted(pending, key=lambda m: m.msn):
            self.clock.cpu(self.costs.message_apply)
            if isinstance(msg, RangeDelete):
                doomed = [
                    k
                    for k, (_v, m) in view.items()
                    if m < msg.msn and msg.covers_key(k) and start <= k < end
                ]
                for k in doomed:
                    del view[k]
            elif isinstance(msg, (Insert, InsertByRef)):
                if start <= msg.key < end:
                    old = view.get(msg.key)
                    if old is None or old[1] < msg.msn:
                        view[msg.key] = (msg.value, msg.msn)
            elif isinstance(msg, Delete):
                old = view.get(msg.key)
                if old is not None and old[1] < msg.msn:
                    del view[msg.key]
            elif isinstance(msg, Patch):
                old = view.get(msg.key)
                if old is None:
                    view[msg.key] = (msg.apply_to(None), msg.msn)
                elif old[1] < msg.msn:
                    view[msg.key] = (msg.apply_to(old[0]), msg.msn)

    # ==================================================================
    # Node I/O
    # ==================================================================
    def _issue_leaf_readahead(self, parent: InternalNode, idx: int) -> None:
        """Asynchronously prefetch child ``idx`` of ``parent``."""
        if idx >= len(parent.children):
            return
        child_id = parent.children[idx]
        if (
            child_id in self._prefetched
            or self.cache.get(child_id) is not None
            or not self.blockman.contains(child_id)
        ):
            return
        off, ln = self.blockman.lookup(child_id)
        self._prefetched[child_id] = self.storage.prefetch(self.file_name, off, ln)
        self.stats.readahead_issued += 1

    def _load_node(
        self,
        node_id: int,
        for_key: Optional[bytes] = None,
        allow_partial: bool = False,
    ) -> Node:
        node = self.cache.get(node_id)
        if node is not None:
            return node
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("tree.node_read", "tree") as sp:
                node = self._load_node_miss(node_id, for_key, allow_partial)
                sp.args["tree"] = self.file_name
                sp.args["node"] = node_id
            return node
        return self._load_node_miss(node_id, for_key, allow_partial)

    def _load_node_miss(
        self,
        node_id: int,
        for_key: Optional[bytes],
        allow_partial: bool,
    ) -> Node:
        if not self.blockman.contains(node_id):
            raise KeyError(f"node {node_id} has no on-disk extent")
        signal = self.env.block_signal
        if signal is not None:
            signal.note("tree_io")
        off, ln = self.blockman.lookup(node_id)
        completion = self._prefetched.pop(node_id, None)
        if completion is not None:
            data = self.storage.finish_read(completion)
            self.stats.readahead_hits += 1
            node = self._decode_full(data, ln)
        elif (
            allow_partial
            and for_key is not None
            and ln > 4 * self.cfg.basement_size
        ):
            node = self._load_leaf_partial(node_id, off, ln, for_key)
            if node is None:
                data = self.storage.read(self.file_name, off, ln)
                node = self._decode_full(data, ln)
        else:
            data = self.storage.read(self.file_name, off, ln)
            node = self._decode_full(data, ln)
        self.stats.node_reads += 1
        self.stats.bytes_node_read += ln
        if isinstance(node, InternalNode):
            node.mem_buf = self.alloc.alloc(
                self.alloc.suggested_capacity(max(4096, node.buffer_bytes))
            )
        self.cache.put(node, self)
        return node

    def _decode_full(self, data: bytes, extent_len: int) -> Node:
        if data[:4] == COMPRESSED_MAGIC:
            (orig_len,) = struct.unpack_from("<I", data, 4)
            self.clock.cpu(
                self.costs.cpu_scale * self.costs.compress_per_byte * orig_len
            )
            data = _zlib.decompress(data[8:])
        # One deserialization buffer allocation per node read.
        buf = self.alloc.alloc(self.alloc.suggested_capacity(len(data)))
        self.clock.cpu(self.costs.checksum(len(data)))
        node = decode_node(data, aligned=self.cfg.page_sharing)
        small, values = self._decode_cost_split(node, len(data))
        self.clock.cpu(self.costs.serialize(small))
        if not self.cfg.page_sharing:
            self.clock.cpu(self.costs.memcpy(values))
        self.alloc.free(buf, size_hint=buf.capacity)
        return node

    @staticmethod
    def _decode_cost_split(node: Node, total: int) -> Tuple[int, int]:
        """Split a node's bytes into (small/irregular, bulk values)."""
        if isinstance(node, LeafNode):
            values = 0
            for basement in node.basements:
                for v in basement.values:
                    n = value_len(v)
                    if n >= 512:
                        values += n
            return max(0, total - values), values
        values = 0
        for msg in node.buffer:
            v = getattr(msg, "value", None)
            if v is not None:
                n = value_len(v)
                if n >= 512:
                    values += n
        return max(0, total - values), values

    # ------------------------------------------------------------------
    # Partial leaf loads (basement-granular reads, §2.2)
    # ------------------------------------------------------------------
    def _load_leaf_partial(
        self, node_id: int, off: int, ln: int, key: bytes
    ) -> Optional[LeafNode]:
        """Read only the leaf header + the basement covering ``key``.

        Returns None if the extent is not a leaf (caller falls back to
        a full read).
        """
        head_len = min(ln, 8192)
        head = self.storage.read(self.file_name, off, head_len)
        try:
            header = decode_leaf_header(head, aligned=self.cfg.page_sharing)
        except (ValueError, struct.error):
            return None
        if header.header_len > head_len or not header.basement_extents:
            return None
        leaf = LeafNode(node_id)
        leaf.basements = []
        for (b_off, b_ln), fk in zip(
            header.basement_extents, header.basement_first_keys
        ):
            stub = BasementNode()
            stub.loaded = False
            stub.stub_first_key = fk
            stub.stub_extent = (b_off, b_ln)
            leaf.basements.append(stub)
        leaf.dirty = False
        self.stats.partial_leaf_loads += 1
        # Stash decode context keyed by node id for later basement loads.
        self._partial_meta[node_id] = (off, header.lift_prefix)
        idx = leaf.basement_index_for(key)
        self._load_basement(leaf, idx)
        return leaf

    def _load_basement(self, leaf: LeafNode, idx: int) -> None:
        meta = self._partial_meta.get(leaf.node_id)
        if meta is None:
            raise RuntimeError("missing partial-load context")
        base_off, prefix = meta
        stub = leaf.basements[idx]
        require(
            stub.stub_extent is not None,
            "unloaded basement has no stub extent",
            TreeInvariantError,
            (leaf.node_id, idx),
        )
        b_off, b_ln = stub.stub_extent
        signal = self.env.block_signal
        if signal is not None:
            signal.note("tree_io")
        blob = self.storage.read(self.file_name, base_off + b_off, b_ln)
        self.clock.cpu(self.costs.checksum(b_ln))
        basement = decode_basement(blob, prefix, aligned=self.cfg.page_sharing)
        basement.loaded = True
        leaf.basements[idx] = basement
        self.cache.touch(leaf.node_id)
        self.stats.basement_loads += 1

    def _ensure_fully_loaded(self, leaf: LeafNode) -> None:
        for idx, basement in enumerate(leaf.basements):
            if not basement.loaded:
                self._load_basement(leaf, idx)
        self._partial_meta.pop(leaf.node_id, None)

    # ------------------------------------------------------------------
    # Node write-back
    # ------------------------------------------------------------------
    def write_node(self, node: Node) -> None:
        """Serialize and persist one node (CoW)."""
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("tree.node_write", "tree") as sp:
                self._write_node_impl(node)
                sp.args["tree"] = self.file_name
                sp.args["node"] = node.node_id
        else:
            self._write_node_impl(node)

    def _write_node_impl(self, node: Node) -> None:
        if isinstance(node, LeafNode):
            self._ensure_fully_loaded(node)
        ser = serialize_node(
            node, aligned=self.cfg.page_sharing, lifting=self.cfg.lifting
        )
        self.clock.cpu(self.costs.serialize(ser.small_bytes))
        self.clock.cpu(self.costs.memcpy(ser.copied_bytes))
        self.clock.cpu(self.costs.checksum(len(ser.data)))
        data = ser.data
        if self.cfg.compression:
            # Real compression (the paper runs with this *disabled*:
            # "the computational costs can delay I/Os for little
            # benefit" — the ablation benchmark measures exactly that).
            self.clock.cpu(
                self.costs.cpu_scale
                * self.costs.compress_per_byte
                * len(data)
            )
            data = (
                COMPRESSED_MAGIC
                + struct.pack("<I", len(ser.data))
                + _zlib.compress(ser.data, level=1)
            )
        buf = self.alloc.alloc(self.alloc.suggested_capacity(len(data)))
        off = self.blockman.relocate(node.node_id, len(data))
        self.storage.write(self.file_name, off, data, byref=True)
        self.alloc.free(buf, size_hint=buf.capacity)
        node.dirty = False
        self.stats.node_writes += 1
        self.stats.bytes_node_written += len(data)
        if self.san is not None:
            self.san.on_write_node(self, node)

    def write_dirty_nodes(self) -> int:
        """Persist every dirty cached node of this tree (checkpoint)."""
        count = 0
        for owner, node in self.cache.all_nodes():
            if owner is self and node.dirty:
                self.write_node(node)
                count += 1
        return count

    def release_node_memory(self, node: Node) -> None:
        """Called on cache eviction: free the simulated buffer and drop
        page-frame references (the VFS may then elide CoW copies)."""
        if isinstance(node, InternalNode):
            if node.mem_buf is not None:
                self.alloc.free(node.mem_buf, size_hint=node.mem_buf.capacity)
                node.mem_buf = None
            for msg in node.buffer:
                release_message(msg)
        elif isinstance(node, LeafNode):
            for basement in node.basements:
                for value in basement.values:
                    if isinstance(value, PageFrame):
                        value.put()
        self._partial_meta.pop(node.node_id, None)

