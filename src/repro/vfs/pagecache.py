"""The VFS page cache.

Pages are :class:`~repro.core.messages.PageFrame` objects so they can
be shared by reference with the B-epsilon-tree (§6).  A page handed to
the file system during write-back is marked ``writeback_shared``
(the paper's ``PG_private`` CoW protocol): a subsequent application
write to that page triggers a copy-on-write fault and a fresh frame,
unless the tree has already released its references, in which case the
copy is elided.

Besides the LRU map the cache keeps two indexes so no operation scans
every cached page: the page indexes cached per path (``drop_file``,
``dirty_pages(path)``) and the set of dirty keys (``dirty_pages()``,
``has_dirty_under``).  ``dirty_bytes`` is always ``PAGE_SIZE`` times
the size of that set.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.check.errors import CacheInvariantError, require
from repro.core.messages import PageFrame
from repro.device.clock import SimClock
from repro.model.costs import CostModel

PAGE_SIZE = 4096


@dataclass
class CachedPage:
    frame: PageFrame
    dirty: bool = False
    #: Shared copy-on-write with the file system (PG_private).
    writeback_shared: bool = False
    dirtied_at: float = 0.0


class PageCache:
    """Per-mount page cache with dirty tracking and LRU eviction."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        budget_bytes: int,
        dirty_limit_bytes: int,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.budget = budget_bytes
        self.dirty_limit = dirty_limit_bytes
        self._pages: "OrderedDict[Tuple[str, int], CachedPage]" = OrderedDict()
        #: path -> page indexes cached for it.
        self._by_path: Dict[str, Set[int]] = {}
        #: Keys of the dirty pages (unordered; write-back sorts).
        self._dirty: Set[Tuple[str, int]] = set()
        self.dirty_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cow_copies = 0
        self.cow_elided = 0

    # ------------------------------------------------------------------
    def lookup(self, path: str, idx: int) -> Optional[CachedPage]:
        self.clock.cpu(self.costs.page_cache_op)
        page = self._pages.get((path, idx))
        if page is None:
            self.misses += 1
            return None
        self.hits += 1
        self._pages.move_to_end((path, idx))
        return page

    def _add(self, path: str, idx: int, page: CachedPage) -> None:
        self._pages[(path, idx)] = page
        self._by_path.setdefault(path, set()).add(idx)

    def _remove(self, path: str, idx: int) -> CachedPage:
        page = self._pages.pop((path, idx))
        idxs = self._by_path[path]
        idxs.discard(idx)
        if not idxs:
            del self._by_path[path]
        if page.dirty:
            self._dirty.discard((path, idx))
            self.dirty_bytes -= PAGE_SIZE
        return page

    def insert_clean(self, path: str, idx: int, frame: PageFrame) -> CachedPage:
        """Cache a page just read from the file system (after a miss)."""
        self.clock.cpu(self.costs.page_cache_op)
        require(
            (path, idx) not in self._pages,
            "insert_clean over an already cached page",
            CacheInvariantError,
            (path, idx),
        )
        page = CachedPage(frame=frame, dirty=False)
        self._add(path, idx, page)
        return page

    def write(self, path: str, idx: int, offset: int, data: bytes) -> CachedPage:
        """Apply an application write to a cached page (CoW-aware).

        ``offset`` is within the page; the caller has already filled
        the page (via read or zeroing) if this is a partial write to an
        existing block.
        """
        key = (path, idx)
        page = self._pages.get(key)
        self.clock.cpu(self.costs.page_cache_op)
        if page is None:
            frame = PageFrame(b"\x00" * PAGE_SIZE)
            page = CachedPage(frame=frame)
            self._add(path, idx, page)
        elif page.writeback_shared:
            # The frame is referenced by the file system.  If those
            # references are gone, reuse the frame; otherwise CoW.
            if page.frame.refs > 1:
                self.clock.cpu(self.costs.cow_trap)
                self.clock.cpu(self.costs.memcpy(PAGE_SIZE))
                old = page.frame
                page.frame = PageFrame(old.data)
                old.put()
                self.cow_copies += 1
            else:
                self.cow_elided += 1
            page.writeback_shared = False
        # Apply the write into the frame.
        self.clock.cpu(self.costs.memcpy(len(data)))
        buf = page.frame.data
        end = offset + len(data)
        if len(buf) < end:
            buf = buf + b"\x00" * (end - len(buf))
        page.frame.data = buf[:offset] + data + buf[end:]
        if not page.dirty:
            page.dirty = True
            page.dirtied_at = self.clock.now
            self._dirty.add(key)
            self.dirty_bytes += PAGE_SIZE
        self._pages.move_to_end(key)
        return page

    # ------------------------------------------------------------------
    def mark_clean(self, path: str, idx: int, shared: bool) -> None:
        page = self._pages.get((path, idx))
        if page is None:
            return
        if page.dirty:
            page.dirty = False
            self._dirty.discard((path, idx))
            self.dirty_bytes -= PAGE_SIZE
        page.writeback_shared = shared

    def dirty_pages(
        self, path: Optional[str] = None
    ) -> List[Tuple[str, int, CachedPage]]:
        """Dirty pages (all, or one file's), in no particular order."""
        pages = self._pages
        if path is None:
            return [(p, idx, pages[(p, idx)]) for p, idx in self._dirty]
        out = []
        for idx in self._by_path.get(path, ()):
            page = pages[(path, idx)]
            if page.dirty:
                out.append((path, idx, page))
        return out

    def has_dirty_under(self, path: str) -> bool:
        """Is any page of ``path`` or of a path below it dirty?"""
        prefix = path + "/"
        return any(p == path or p.startswith(prefix) for p, _ in self._dirty)

    def over_dirty_limit(self) -> bool:
        return self.dirty_bytes >= self.dirty_limit

    def drop_file(self, path: str) -> None:
        """Invalidate every cached page of ``path`` (unlink/truncate)."""
        for idx in list(self._by_path.get(path, ())):
            self._remove(path, idx).frame.put()

    def drop_all(self) -> None:
        """Drop the whole cache (echo 3 > drop_caches)."""
        for page in self._pages.values():
            page.frame.put()
        self._pages.clear()
        self._by_path.clear()
        self._dirty.clear()
        self.dirty_bytes = 0

    def evict_to_fit(self) -> List[Tuple[str, int, CachedPage]]:
        """Evict clean LRU pages; returns dirty pages that must be
        written back first (caller writes them, then calls again)."""
        need_writeback: List[Tuple[str, int, CachedPage]] = []
        used = len(self._pages) * PAGE_SIZE
        if used <= self.budget:
            return need_writeback
        # Walk the LRU lazily; victims leave the map after the walk.
        victims: List[Tuple[str, int]] = []
        for key, page in self._pages.items():
            if used <= self.budget:
                break
            if page.dirty:
                need_writeback.append((key[0], key[1], page))
                continue
            victims.append(key)
            used -= PAGE_SIZE
        for path, idx in victims:
            self._remove(path, idx).frame.put()
            self.evictions += 1
        return need_writeback

    def cached_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE
