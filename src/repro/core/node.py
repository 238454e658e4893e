"""B-epsilon-tree nodes.

* :class:`BasementNode` — a packed run of key-value pairs (~128 KiB);
  the unit of partial leaf reads.
* :class:`LeafNode` — an ordered sequence of basement nodes.
* :class:`InternalNode` — pivots, children, and a message buffer.

Nodes never touch the simulated clock themselves; all cost charging is
done by the tree (which knows the configuration and feature flags).
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

from repro.check.errors import TreeInvariantError, require
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


class BasementNode:
    """A sorted run of key-value pairs inside a leaf.

    Every pair carries the MSN of the message that last wrote it, so
    out-of-order message arrival (possible once apply-on-query moves
    messages down early) is resolved correctly: an older message never
    clobbers a newer pair, and a range delete only removes pairs older
    than itself.
    """

    __slots__ = (
        "keys",
        "values",
        "msns",
        "nbytes",
        "loaded",
        "stub_first_key",
        "stub_extent",
    )

    #: Fixed per-pair overhead used for size accounting (incl. MSN).
    PAIR_OVERHEAD = 20

    def __init__(self) -> None:
        self.keys: List[bytes] = []
        self.values: List[Value] = []
        self.msns: List[int] = []
        self.nbytes = 0
        #: False when this basement's contents have not been read from
        #: disk (partial leaf load).
        self.loaded = True
        #: For unloaded stubs: the basement's first key (from the leaf
        #: header) and its (offset, length) extent within the node.
        self.stub_first_key: Optional[bytes] = None
        self.stub_extent: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    def pair_size(self, key: bytes, value: Value) -> int:
        return self.PAIR_OVERHEAD + len(key) + value_len(value)

    def get(self, key: bytes) -> Tuple[bool, Optional[Value]]:
        """Return (present, value)."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i]
        return False, None

    def get_with_msn(self, key: bytes) -> Tuple[bool, Optional[Value], int]:
        """Return (present, value, pair_msn)."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i], self.msns[i]
        return False, None, 0

    def set(self, key: bytes, value: Value, msn: int = 0) -> None:
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            old = self.values[i]
            self.nbytes -= self.pair_size(key, old)
            if isinstance(old, PageFrame):
                old.put()
            self.values[i] = value
            self.msns[i] = msn
        else:
            self.keys.insert(i, key)
            self.values.insert(i, value)
            self.msns.insert(i, msn)
        self.nbytes += self.pair_size(key, value)

    def remove(self, key: bytes) -> bool:
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            value = self.values[i]
            self.nbytes -= self.pair_size(key, value)
            if isinstance(value, PageFrame):
                value.put()
            del self.keys[i]
            del self.values[i]
            del self.msns[i]
            return True
        return False

    def remove_range(self, start: bytes, end: bytes, before_msn: Optional[int] = None) -> int:
        """Remove pairs in [start, end) older than ``before_msn``.

        ``before_msn=None`` removes unconditionally.  Returns the
        number of pairs removed.
        """
        lo = bisect.bisect_left(self.keys, start)
        hi = bisect.bisect_left(self.keys, end)
        keep_k: List[bytes] = []
        keep_v: List[Value] = []
        keep_m: List[int] = []
        removed = 0
        for i in range(lo, hi):
            if before_msn is not None and self.msns[i] >= before_msn:
                keep_k.append(self.keys[i])
                keep_v.append(self.values[i])
                keep_m.append(self.msns[i])
                continue
            value = self.values[i]
            self.nbytes -= self.pair_size(self.keys[i], value)
            if isinstance(value, PageFrame):
                value.put()
            removed += 1
        self.keys[lo:hi] = keep_k
        self.values[lo:hi] = keep_v
        self.msns[lo:hi] = keep_m
        return removed

    def apply(self, msg: PointMessage) -> bool:
        """Apply one point message; returns False if it was stale.

        A message older than the pair it targets is a no-op (the pair
        was produced by a newer message moved down early).
        """
        present, old, pair_msn = self.get_with_msn(msg.key)
        if present and msg.msn <= pair_msn:
            return False
        if isinstance(msg, Insert):
            self.set(msg.key, msg.value, msg.msn)
        elif isinstance(msg, InsertByRef):
            # The basement takes its own reference; the message's
            # reference is released by the caller (release_message).
            msg.frame.get()
            self.set(msg.key, msg.frame, msg.msn)
        elif isinstance(msg, Delete):
            self.remove(msg.key)
        elif isinstance(msg, Patch):
            self.set(msg.key, msg.apply_to(old), msg.msn)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot apply {msg!r}")
        return True

    def first_key(self) -> Optional[bytes]:
        if not self.loaded:
            return self.stub_first_key
        return self.keys[0] if self.keys else None

    def last_key(self) -> Optional[bytes]:
        return self.keys[-1] if self.keys else None

    def split(self) -> "BasementNode":
        """Split in half; returns the new right sibling."""
        mid = len(self.keys) // 2
        right = BasementNode()
        right.keys = self.keys[mid:]
        right.values = self.values[mid:]
        right.msns = self.msns[mid:]
        del self.keys[mid:]
        del self.values[mid:]
        del self.msns[mid:]
        moved = sum(
            self.pair_size(k, v) for k, v in zip(right.keys, right.values)
        )
        right.nbytes = moved
        self.nbytes -= moved
        return right

    def items(self) -> Iterable[Tuple[bytes, Value]]:
        return zip(self.keys, self.values)

    def items_with_msn(self) -> Iterable[Tuple[bytes, Value, int]]:
        return zip(self.keys, self.values, self.msns)


class Node:
    """Common node state."""

    __slots__ = ("node_id", "height", "dirty", "msn_max")

    def __init__(self, node_id: int, height: int) -> None:
        self.node_id = node_id
        self.height = height
        self.dirty = True
        #: Highest MSN applied to / buffered in this node.
        self.msn_max = 0

    @property
    def is_leaf(self) -> bool:
        return self.height == 0

    def nbytes(self) -> int:
        raise NotImplementedError


class LeafNode(Node):
    """A leaf: an ordered list of basement nodes."""

    __slots__ = ("basements",)

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id, height=0)
        self.basements: List[BasementNode] = [BasementNode()]

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.basements)

    def pair_count(self) -> int:
        return sum(len(b) for b in self.basements)

    def basement_index_for(self, key: bytes) -> int:
        """Index of the basement that should hold ``key``.

        Basements emptied by deletions have no first key; the search
        skips them (they are pruned lazily after batch applies).
        """
        best = 0
        for i, basement in enumerate(self.basements):
            first = basement.first_key()
            if first is None:
                continue
            if first <= key:
                best = i
            else:
                break
        return best

    def prune_empty_basements(self) -> None:
        """Drop loaded-and-empty basements (keep at least one)."""
        kept = [b for b in self.basements if len(b) or not b.loaded]
        self.basements = kept or [BasementNode()]

    def basement_for(self, key: bytes) -> BasementNode:
        return self.basements[self.basement_index_for(key)]

    def get(self, key: bytes) -> Tuple[bool, Optional[Value]]:
        return self.basement_for(key).get(key)

    def apply(self, msg: PointMessage, basement_size: int) -> bool:
        idx = self.basement_index_for(key=msg.key)
        basement = self.basements[idx]
        applied = basement.apply(msg)
        if basement.nbytes > basement_size and len(basement) > 1:
            right = basement.split()
            self.basements.insert(idx + 1, right)
        return applied

    def apply_range_delete(self, msg: RangeDelete) -> int:
        removed = 0
        for basement in self.basements:
            removed += basement.remove_range(msg.start, msg.end, before_msn=msg.msn)
        # Drop empty basements (keep at least one).
        self.basements = [b for b in self.basements if len(b)] or [BasementNode()]
        return removed

    def split(self, new_node_id: int) -> Tuple["LeafNode", bytes]:
        """Split this leaf in half; returns (right_sibling, pivot_key)."""
        if len(self.basements) < 2:
            right_b = self.basements[0].split()
            self.basements.append(right_b)
        mid = len(self.basements) // 2
        right = LeafNode(new_node_id)
        right.basements = self.basements[mid:]
        del self.basements[mid:]
        right.msn_max = self.msn_max
        pivot = right.basements[0].first_key()
        require(
            pivot is not None,
            "leaf split produced an empty right half",
            TreeInvariantError,
            new_node_id,
        )
        return right, pivot

    def items(self) -> Iterable[Tuple[bytes, Value]]:
        for basement in self.basements:
            yield from basement.items()

    def first_key(self) -> Optional[bytes]:
        for basement in self.basements:
            k = basement.first_key()
            if k is not None:
                return k
        return None

    def last_key(self) -> Optional[bytes]:
        for basement in reversed(self.basements):
            k = basement.last_key()
            if k is not None:
                return k
        return None


class InternalNode(Node):
    """An internal node: pivots, child ids, and a message buffer.

    ``pivots[i]`` separates ``children[i]`` (keys < pivot) from
    ``children[i+1]`` (keys >= pivot); ``len(pivots) ==
    len(children) - 1``.
    """

    __slots__ = (
        "pivots",
        "children",
        "buffer",
        "buffer_bytes",
        "point_index",
        "range_msgs",
        "mem_buf",
        "_sorted_keys",
    )

    def __init__(self, node_id: int, height: int) -> None:
        super().__init__(node_id, height)
        self.pivots: List[bytes] = []
        self.children: List[int] = []
        #: Messages in arrival (MSN) order.
        self.buffer: List[Message] = []
        self.buffer_bytes = 0
        #: key -> list of point messages for that key (query fast path,
        #: modeling TokuDB's per-buffer ordered index).
        self.point_index: dict = {}
        #: Buffered range messages (every query must consult these).
        self.range_msgs: List[RangeDelete] = []
        #: Simulated allocation backing this buffer (set by the tree).
        self.mem_buf = None
        #: Lazy sorted snapshot of point_index keys (range extraction).
        self._sorted_keys: Optional[List[bytes]] = None

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        pivot_bytes = sum(len(p) + 8 for p in self.pivots) + 8 * len(self.children)
        return pivot_bytes + self.buffer_bytes

    def child_index_for(self, key: bytes) -> int:
        return bisect.bisect_right(self.pivots, key)

    def child_range(self, idx: int) -> Tuple[Optional[bytes], Optional[bytes]]:
        """Key range [lo, hi) routed to child ``idx`` (None = unbounded)."""
        lo = self.pivots[idx - 1] if idx > 0 else None
        hi = self.pivots[idx] if idx < len(self.pivots) else None
        return lo, hi

    def enqueue(self, msg: Message) -> None:
        self.buffer.append(msg)
        self.buffer_bytes += msg.nbytes()
        self._index_add(msg)
        if msg.msn > self.msn_max:
            self.msn_max = msg.msn

    def _index_add(self, msg: Message) -> None:
        if isinstance(msg, RangeDelete):
            self.range_msgs.append(msg)
        else:
            key = msg.key  # type: ignore[attr-defined]
            if key not in self.point_index:
                self._sorted_keys = None
            self.point_index.setdefault(key, []).append(msg)

    def _reindex(self) -> None:
        self.point_index = {}
        self.range_msgs = []
        self._sorted_keys = None
        for msg in self.buffer:
            self._index_add(msg)

    def point_keys_in_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> List[bytes]:
        """Buffered point-message keys within [lo, hi) (ordered-index
        extraction, O(log n + k) like TokuDB's OMT)."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.point_index)
        keys = self._sorted_keys
        i = bisect.bisect_left(keys, lo) if lo is not None else 0
        j = bisect.bisect_left(keys, hi) if hi is not None else len(keys)
        return keys[i:j]

    def set_buffer(self, msgs: List[Message]) -> None:
        self.buffer = msgs
        self.buffer_bytes = sum(m.nbytes() for m in msgs)
        self._reindex()

    def remove_messages(self, doomed: List[Message], release: bool = True) -> None:
        doomed_ids = {id(m) for m in doomed}
        kept = []
        for m in self.buffer:
            if id(m) in doomed_ids:
                self.buffer_bytes -= m.nbytes()
                if release:
                    release_message(m)
            else:
                kept.append(m)
        self.buffer = kept
        self._reindex()

    def pending_for_key(self, key: bytes) -> List[Message]:
        """Buffered messages affecting ``key`` (point + covering ranges)."""
        out: List[Message] = list(self.point_index.get(key, ()))
        for rng in self.range_msgs:
            if rng.covers_key(key):
                out.append(rng)
        return out

    @staticmethod
    def _routes_to(msg: Message, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
        if isinstance(msg, RangeDelete):
            if hi is not None and msg.start >= hi:
                return False
            if lo is not None and msg.end <= lo:
                return False
            return True
        key = msg.key  # type: ignore[attr-defined]
        if lo is not None and key < lo:
            return False
        if hi is not None and key >= hi:
            return False
        return True

    def messages_for_child(self, idx: int) -> List[Message]:
        lo, hi = self.child_range(idx)
        return [m for m in self.buffer if self._routes_to(m, lo, hi)]

    def fattest_child(self) -> int:
        """Child with the most pending buffered bytes (one pass)."""
        import bisect as _bisect

        totals = [0] * len(self.children)
        for msg in self.buffer:
            if isinstance(msg, RangeDelete):
                lo = _bisect.bisect_right(self.pivots, msg.start)
                hi = _bisect.bisect_right(self.pivots, msg.end)
                share = msg.nbytes()
                for i in range(lo, min(hi + 1, len(totals))):
                    totals[i] += share
            else:
                idx = _bisect.bisect_right(self.pivots, msg.key)  # type: ignore[attr-defined]
                totals[idx] += msg.nbytes()
        return max(range(len(totals)), key=totals.__getitem__)

    def add_child(self, pivot: bytes, child_id: int, after_idx: int) -> None:
        """Insert a new child to the right of ``after_idx``."""
        self.pivots.insert(after_idx, pivot)
        self.children.insert(after_idx + 1, child_id)

    def split(self, new_node_id: int) -> Tuple["InternalNode", bytes]:
        """Split in half; returns (right_sibling, pivot)."""
        mid = len(self.children) // 2
        pivot = self.pivots[mid - 1]
        right = InternalNode(new_node_id, self.height)
        right.pivots = self.pivots[mid:]
        right.children = self.children[mid:]
        del self.pivots[mid - 1 :]
        del self.children[mid:]
        # Partition buffered messages.  Range messages spanning the
        # pivot are duplicated with clipped ranges.
        left_msgs: List[Message] = []
        right_msgs: List[Message] = []
        for msg in self.buffer:
            if isinstance(msg, RangeDelete):
                if msg.end <= pivot:
                    left_msgs.append(msg)
                elif msg.start >= pivot:
                    right_msgs.append(msg)
                else:
                    left_msgs.append(RangeDelete(msg.start, pivot, msg.msn))
                    right_msgs.append(RangeDelete(pivot, msg.end, msg.msn))
            elif msg.key < pivot:  # type: ignore[attr-defined]
                left_msgs.append(msg)
            else:
                right_msgs.append(msg)
        self.set_buffer(left_msgs)
        right.set_buffer(right_msgs)
        right.msn_max = self.msn_max
        return right, pivot
