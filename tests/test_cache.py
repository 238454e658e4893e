"""Tests for the node cache, page cache and dentry cache."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import NodeCache
from repro.core.messages import Insert, PageFrame
from repro.core.node import InternalNode, LeafNode
from repro.device.clock import SimClock
from repro.model.costs import CostModel
from repro.vfs.dcache import DentryCache
from repro.vfs.inode import FileKind, Stat, VInode
from repro.vfs.pagecache import PAGE_SIZE, PageCache


def leaf_with(node_id, nbytes):
    leaf = LeafNode(node_id)
    leaf.apply(Insert(b"k%d" % node_id, b"x" * nbytes, msn=node_id), 1 << 20)
    return leaf


class TestNodeCache:
    def test_hit_miss_counters(self):
        cache = NodeCache(1 << 20)
        cache.put(leaf_with(1, 10), owner=None)
        assert cache.get(1) is not None
        assert cache.get(2) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_prefers_leaves(self):
        cache = NodeCache(600)
        owner = object()
        internal = InternalNode(1, height=1)
        internal.children = [2]
        cache.put(internal, owner)
        cache.put(leaf_with(2, 300), owner)
        cache.put(leaf_with(3, 300), owner)
        written = []
        cache.evict_to_fit(lambda o, n: written.append(n.node_id))
        # The internal node survives; a leaf went.
        assert cache.get(1) is not None

    def test_pinned_nodes_survive(self):
        cache = NodeCache(100)
        owner = object()
        cache.put(leaf_with(1, 400), owner)
        cache.pin(1)
        cache.evict_to_fit(lambda o, n: None)
        assert cache.get(1) is not None
        cache.unpin(1)
        cache.evict_to_fit(lambda o, n: None)
        assert cache.get(1) is None

    def test_dirty_victims_are_written(self):
        cache = NodeCache(100)
        owner = object()
        leaf = leaf_with(1, 400)
        leaf.dirty = True
        cache.put(leaf, owner)
        written = []
        cache.evict_to_fit(lambda o, n: written.append((o, n.node_id)))
        assert written == [(owner, 1)]

    def test_dirty_nodes_iteration(self):
        cache = NodeCache(1 << 20)
        a, b = leaf_with(1, 10), leaf_with(2, 10)
        b.dirty = False
        cache.put(a, "o1")
        cache.put(b, "o2")
        assert [(o, n.node_id) for o, n in cache.dirty_nodes()] == [("o1", 1)]


class TestPageCache:
    def make(self):
        return PageCache(SimClock(), CostModel(), 16 * PAGE_SIZE, 4 * PAGE_SIZE)

    def test_write_then_lookup(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"hello")
        page = pc.lookup("/f", 0)
        assert page.dirty
        assert page.frame.data[:5] == b"hello"
        assert pc.dirty_bytes == PAGE_SIZE

    def test_mark_clean(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"x")
        pc.mark_clean("/f", 0, shared=True)
        assert pc.dirty_bytes == 0
        assert pc.lookup("/f", 0).writeback_shared

    def test_cow_on_shared_frame(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"v1")
        page = pc.lookup("/f", 0)
        page.frame.get()  # the "tree" takes a reference
        pc.mark_clean("/f", 0, shared=True)
        old = page.frame
        pc.write("/f", 0, 0, b"v2")
        assert pc.lookup("/f", 0).frame is not old
        assert pc.cow_copies == 1
        assert old.data[:2] == b"v1"  # history preserved for the tree

    def test_cow_elided_when_tree_released(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"v1")
        pc.mark_clean("/f", 0, shared=True)  # shared but refs == 1
        old = pc.lookup("/f", 0).frame
        pc.write("/f", 0, 0, b"v2")
        assert pc.lookup("/f", 0).frame is old
        assert pc.cow_elided == 1

    def test_drop_file(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"a")
        pc.write("/g", 0, 0, b"b")
        pc.drop_file("/f")
        assert pc.lookup("/f", 0) is None
        assert pc.lookup("/g", 0) is not None
        assert pc.dirty_bytes == PAGE_SIZE

    def test_eviction_returns_dirty_for_writeback(self):
        pc = self.make()
        for i in range(20):
            pc.write("/f", i, 0, b"d")
        need = pc.evict_to_fit()
        assert need  # dirty pages cannot be silently dropped
        for p, i, page in need:
            pc.mark_clean(p, i, shared=False)
        pc.evict_to_fit()
        assert pc.cached_bytes() <= pc.budget


class TestDentryCache:
    def test_positive_negative(self):
        dc = DentryCache()
        dc.insert(VInode("/a", Stat()))
        dc.insert_negative("/missing")
        assert dc.get("/a") is not None
        assert dc.contains("/missing") and dc.get("/missing") is None
        assert dc.negative_hits == 1

    def test_invalidate_tree(self):
        dc = DentryCache()
        for p in ("/d", "/d/x", "/d/x/y", "/dz"):
            dc.insert(VInode(p, Stat()))
        dc.invalidate_tree("/d")
        assert not dc.contains("/d")
        assert not dc.contains("/d/x/y")
        assert dc.contains("/dz")  # sibling with shared prefix survives

    def test_dirty_inodes_never_evicted(self):
        dc = DentryCache(capacity=4)
        dirty = VInode("/dirty", Stat(), dirty=True)
        dc.insert(dirty)
        for i in range(10):
            dc.insert(VInode(f"/clean{i}", Stat()))
        assert dc.contains("/dirty")

    def test_clear_clean_keeps_dirty(self):
        dc = DentryCache()
        dc.insert(VInode("/dirty", Stat(), dirty=True))
        dc.insert(VInode("/clean", Stat()))
        dc.clear_clean()
        assert dc.contains("/dirty")
        assert not dc.contains("/clean")


# ----------------------------------------------------------------------
# Incremental bookkeeping against the former full-scan implementations
# ----------------------------------------------------------------------


class ScanPageCache:
    """The page cache's former bookkeeping: every query scans the whole
    LRU map.  Tracks keys and dirty bits only."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.pages: "OrderedDict[tuple, bool]" = OrderedDict()
        self.dirty_bytes = 0

    def lookup(self, path, idx):
        if (path, idx) in self.pages:
            self.pages.move_to_end((path, idx))
            return True
        return False

    def insert_clean(self, path, idx):
        self.pages[(path, idx)] = False
        self.pages.move_to_end((path, idx))

    def write(self, path, idx):
        if not self.pages.get((path, idx), False):
            self.dirty_bytes += PAGE_SIZE
        self.pages[(path, idx)] = True
        self.pages.move_to_end((path, idx))

    def mark_clean(self, path, idx):
        if self.pages.get((path, idx)):
            self.pages[(path, idx)] = False
            self.dirty_bytes -= PAGE_SIZE

    def dirty_pages(self, path=None):
        return [
            k for k, dirty in self.pages.items()
            if dirty and (path is None or k[0] == path)
        ]

    def drop_file(self, path):
        for k in [k for k in self.pages if k[0] == path]:
            if self.pages.pop(k):
                self.dirty_bytes -= PAGE_SIZE

    def drop_all(self):
        self.pages.clear()
        self.dirty_bytes = 0

    def evict_to_fit(self):
        need, victims = [], []
        used = len(self.pages) * PAGE_SIZE
        if used <= self.budget:
            return need, victims
        for key in list(self.pages.keys()):
            if used <= self.budget:
                break
            if self.pages[key]:
                need.append(key)
                continue
            self.pages.pop(key)
            victims.append(key)
            used -= PAGE_SIZE
        return need, victims


class ScanDentryCache:
    """The dentry cache's former bookkeeping: subtree queries scan
    every entry in LRU order."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[str, object]" = OrderedDict()

    def get(self, path):
        if path in self.entries:
            self.entries.move_to_end(path)

    def insert(self, path, entry):
        self.entries[path] = entry
        self.entries.move_to_end(path)
        while len(self.entries) > self.capacity:
            p, e = self.entries.popitem(last=False)
            if e is not None and e.dirty:
                self.entries[p] = e

    def invalidate(self, path):
        self.entries.pop(path, None)

    def subtree(self, prefix):
        pref = prefix if prefix.endswith("/") else prefix + "/"
        return [
            (p, e) for p, e in self.entries.items()
            if p == prefix or p.startswith(pref)
        ]

    def invalidate_tree(self, prefix):
        for p, _e in self.subtree(prefix):
            del self.entries[p]

    def clear_clean(self):
        self.entries = OrderedDict(
            (p, e) for p, e in self.entries.items()
            if e is not None and e.dirty
        )


PATHS = ["/a", "/a/x", "/a/x/y", "/ab", "/a!", "/a0", "/b", "/"]
PAGE_PATHS = ["/a", "/a/x", "/a!", "/ab"]

page_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["write", "read", "clean"]),
                  st.sampled_from(PAGE_PATHS), st.integers(0, 2)),
        st.tuples(st.just("drop"), st.sampled_from(PAGE_PATHS)),
        st.tuples(st.just("dirty"), st.sampled_from(PAGE_PATHS + [None])),
        st.tuples(st.just("drop_all")),
    ),
    min_size=10,
    max_size=60,
)

dentry_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["get", "insert", "insert_dirty",
                                   "negative", "invalidate", "clean",
                                   "invalidate_tree"]),
                  st.sampled_from(PATHS)),
        st.tuples(st.just("clear_clean")),
    ),
    min_size=5,
    max_size=60,
)


node_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "grow", "touch_grow", "remove", "evict",
                         "clear"]),
        st.integers(1, 3),
        st.integers(1, 300),
    ),
    min_size=5,
    max_size=60,
)


class TestIncrementalAgainstScan:
    @settings(max_examples=150, deadline=None)
    @given(ops=node_ops)
    def test_node_cache_total_matches_full_sum(self, ops):
        cache = NodeCache(300)
        msn = [0]

        def grow(node, nbytes):
            msn[0] += 1
            node.apply(Insert(b"g%d" % msn[0], b"x" * nbytes, msn=msn[0]), 1 << 20)

        for kind, nid, nbytes in ops:
            if kind == "put":
                cache.put(leaf_with(nid, nbytes), owner=None)
            elif kind == "grow":
                node = cache.get(nid)
                if node is not None:
                    grow(node, nbytes)
            elif kind == "touch_grow":
                entry = cache._nodes.get(nid)
                if entry is not None:
                    grow(entry[0], nbytes)
                    cache.touch(nid)
            elif kind == "remove":
                cache.remove(nid)
            elif kind == "evict":
                cache.evict_to_fit(lambda o, n: None)
            else:
                cache.clear()
            # Measured after every op, as KVEnv._post_op does.
            assert cache.memory_used() == sum(
                n.nbytes() for n, _o in cache._nodes.values()
            )

    @settings(max_examples=150, deadline=None)
    @given(ops=page_ops)
    def test_page_cache_matches_scan(self, ops):
        pc = PageCache(SimClock(), CostModel(), 2 * PAGE_SIZE, 4 * PAGE_SIZE)
        ref = ScanPageCache(pc.budget)
        for op in ops:
            kind = op[0]
            if kind in ("write", "read"):
                # Each VFS read or write ends with an eviction pass.
                before = list(pc._pages)
                need = [(p, i) for p, i, _page in pc.evict_to_fit()]
                want_need, victims = ref.evict_to_fit()
                assert need == want_need  # same keys, same LRU order
                assert [k for k in before if k not in pc._pages] == victims
            if kind == "write":
                pc.write(op[1], op[2], 0, b"w")
                ref.write(op[1], op[2])
            elif kind == "read":
                hit = pc.lookup(op[1], op[2]) is not None
                assert hit == ref.lookup(op[1], op[2])
                if not hit:
                    pc.insert_clean(op[1], op[2], PageFrame(b"r"))
                    ref.insert_clean(op[1], op[2])
            elif kind == "clean":
                pc.mark_clean(op[1], op[2], shared=False)
                ref.mark_clean(op[1], op[2])
            elif kind == "drop":
                pc.drop_file(op[1])
                ref.drop_file(op[1])
            elif kind == "drop_all":
                pc.drop_all()
                ref.drop_all()
            elif kind == "dirty":
                got = [(p, i) for p, i, _page in pc.dirty_pages(op[1])]
                assert sorted(got) == sorted(ref.dirty_pages(op[1]))
            assert list(pc._pages) == list(ref.pages)
            assert pc.dirty_bytes == ref.dirty_bytes
            assert pc.dirty_bytes == PAGE_SIZE * len(pc.dirty_pages())
            for path in PATHS:
                assert pc.has_dirty_under(path) == any(
                    p == path or p.startswith(path + "/")
                    for p, _i in ref.dirty_pages()
                )

    @settings(max_examples=150, deadline=None)
    @given(ops=dentry_ops)
    def test_dentry_cache_matches_scan(self, ops):
        dc = DentryCache(capacity=4)
        ref = ScanDentryCache(capacity=4)
        for op in ops:
            kind = op[0]
            path = op[1] if len(op) > 1 else None
            if kind == "get":
                dc.get(path)
                ref.get(path)
            elif kind in ("insert", "insert_dirty"):
                inode = VInode(path, Stat(), dirty=kind == "insert_dirty")
                dc.insert(inode)
                ref.insert(path, inode)
            elif kind == "negative":
                dc.insert_negative(path)
                ref.insert(path, None)
            elif kind == "invalidate":
                dc.invalidate(path)
                ref.invalidate(path)
            elif kind == "clean":
                entry = dc._entries.get(path)
                if entry is not None:
                    entry.dirty = False  # write-back outside the cache
            elif kind == "invalidate_tree":
                dc.invalidate_tree(path)
                ref.invalidate_tree(path)
            else:
                dc.clear_clean()
                ref.clear_clean()
            assert list(dc._entries.items()) == list(ref.entries.items())
            for prefix in PATHS + ["/a/", "/a/x/"]:
                assert dc.subtree(prefix) == ref.subtree(prefix)

    def test_subtree_finds_orphans_in_lru_order(self):
        dc = DentryCache()
        for p in ("/d", "/d/x", "/d/x/y", "/d/z"):
            dc.insert(VInode(p, Stat(), dirty=p != "/d/x"))
        dc.get("/d/x/y")
        dc.get("/d")
        dc.insert(VInode("/d/x", Stat()))  # clean again, then dropped
        dc.clear_clean()
        assert [p for p, _e in dc.subtree("/d")] == ["/d/z", "/d/x/y", "/d"]
        dc.invalidate("/d")
        assert [p for p, _e in dc.subtree("/d")] == ["/d/z", "/d/x/y"]
        dc.invalidate_tree("/d")
        assert dc.subtree("/") == []
