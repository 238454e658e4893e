"""Dentry and inode caches.

One combined structure: positive entries map a path to a cached
:class:`~repro.vfs.inode.VInode`; negative entries record confirmed
absence (so repeated failed lookups stay cheap).  BetrFS v0.6's +DC
optimization populates this cache opportunistically from readdir
results (§4), and its rmdir fast path trusts the cached ``nlink``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.vfs.inode import VInode


class DentryCache:
    """Path-indexed dentry + inode cache with LRU eviction.

    A sorted list of the cached paths turns a subtree into one
    contiguous run (``[pref, pref[:-1] + "0")``, since ``"0"`` follows
    ``"/"``), so rename and rmdir never scan the whole cache.  Each
    entry carries a touch stamp so the run can be put back in LRU
    order: rename writes dirty inodes back in that order, and the
    order reaches the log.
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, Optional[VInode]]" = OrderedDict()
        #: The keys of ``_entries``, sorted.
        self._sorted: List[str] = []
        #: path -> stamp of its last touch (larger is more recent).
        self._stamps: Dict[str, int] = {}
        self._stamp_counter = count()
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0

    def get(self, path: str) -> Optional[VInode]:
        """Positive lookup; None means 'not cached' (see contains)."""
        if path in self._entries:
            self._entries.move_to_end(path)
            self._stamps[path] = next(self._stamp_counter)
            entry = self._entries[path]
            if entry is None:
                self.negative_hits += 1
            else:
                self.hits += 1
            return entry
        self.misses += 1
        return None

    def contains(self, path: str) -> bool:
        return path in self._entries

    def insert(self, inode: VInode) -> None:
        self._put(inode.path, inode)

    def insert_negative(self, path: str) -> None:
        self._put(path, None)

    def _put(self, path: str, entry: Optional[VInode]) -> None:
        if path not in self._entries:
            insort(self._sorted, path)
        self._entries[path] = entry
        self._entries.move_to_end(path)
        self._stamps[path] = next(self._stamp_counter)
        self._evict()

    def _forget(self, path: str) -> None:
        del self._sorted[bisect_left(self._sorted, path)]
        del self._stamps[path]

    def invalidate(self, path: str) -> Optional[VInode]:
        if path not in self._entries:
            return None
        self._forget(path)
        return self._entries.pop(path)

    def subtree(self, prefix: str) -> List[Tuple[str, Optional[VInode]]]:
        """Cached entries at or below ``prefix``, least recently used
        first.  Descendants whose parent entry is gone are included."""
        pref = prefix if prefix.endswith("/") else prefix + "/"
        lo = bisect_left(self._sorted, pref)
        hi = bisect_left(self._sorted, pref[:-1] + "0", lo)
        paths = self._sorted[lo:hi]
        if prefix != pref and prefix in self._entries:
            paths.append(prefix)
        paths.sort(key=self._stamps.__getitem__)
        return [(p, self._entries[p]) for p in paths]

    def invalidate_tree(self, prefix: str) -> None:
        """Drop a directory and all cached descendants (rename/rmdir)."""
        for p, _entry in self.subtree(prefix):
            self._forget(p)
            del self._entries[p]

    def dirty_inodes(self) -> List[VInode]:
        return [e for e in self._entries.values() if e is not None and e.dirty]

    def _evict(self) -> None:
        while len(self._entries) > self.capacity:
            path, entry = self._entries.popitem(last=False)
            if entry is not None and entry.dirty:
                # Never silently drop a dirty inode; re-insert at MRU.
                self._entries[path] = entry
                self._stamps[path] = next(self._stamp_counter)
            else:
                self._forget(path)

    def clear_clean(self) -> None:
        """Drop clean entries (cold-cache experiments)."""
        keep = {
            p: e
            for p, e in self._entries.items()
            if e is not None and e.dirty
        }
        self._entries = OrderedDict(keep)
        self._sorted = [p for p in self._sorted if p in keep]
        self._stamps = {p: self._stamps[p] for p in keep}
