"""Per-layer spans recorded from outside the program.

The traced run wraps public methods on one mount's layer instances (and,
for ``static_check``, the checker pass entry points and ``ast.parse``)
with a recorder that keeps each span's name, start, end and parent in
flat arrays.  Wrappers read the host clock and append; they never touch
simulated state, so a traced run must reproduce the untraced run's
simulated clock and device image exactly (the benchmark checks this).
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: (layer, how to reach its instances from a mount, public methods).
FS_LAYERS: Tuple[Tuple[str, Callable, Tuple[str, ...]], ...] = (
    ("vfs", lambda m: [m.vfs],
     ("create", "mkdir", "write", "read", "fsync", "rename", "unlink")),
    ("vfs.pagecache", lambda m: [m.vfs.pages],
     ("lookup", "write", "evict_to_fit", "dirty_pages", "drop_file")),
    ("vfs.dcache", lambda m: [m.vfs.dcache], ("invalidate_tree", "dirty_inodes")),
    ("betrfs", lambda m: [m.backend],
     ("lookup", "set_stat", "write_page", "read_pages", "rename")),
    ("core.env", lambda m: [m.env],
     ("insert", "get", "range_query", "sync", "checkpoint")),
    ("core.cache", lambda m: [m.env.cache],
     ("get", "put", "memory_used", "evict_to_fit")),
    ("core.wal", lambda m: [m.env.wal], ("append", "flush")),
    ("core.tree", lambda m: list(m.env.trees), ("write_node",)),
    ("storage", lambda m: [m.storage], ("read", "write", "prefetch", "sync")),
    ("kmem", lambda m: [m.alloc], ("alloc", "realloc")),
    ("device", lambda m: [m.device],
     ("submit_read", "submit_write", "flush", "discard")),
)

#: static_check: (span name, module, attribute).
CHECKER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("checkers.lint", "repro.check.lint", "lint_repo"),
    ("checkers.arch", "repro.check.arch", "analyze"),
    ("checkers.costflow", "repro.check.costflow", "analyze"),
    ("checkers.conc", "repro.check.conc", "analyze"),
    ("checkers.durflow", "repro.check.durflow", "analyze"),
    ("checkers.ast_parse", "ast", "parse"),
)

_MISSING = object()


def fs_span_names() -> List[str]:
    return [f"{layer}.{m}" for layer, _get, methods in FS_LAYERS for m in methods]


class SpanRecorder:
    """Wraps callables in place and records one span per call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, obj: object, attr: str, name: str) -> None:
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        inner = getattr(obj, attr)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return inner(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        self._saved.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, span)

    def wrap_mount(self, mount) -> None:
        for layer, get, methods in FS_LAYERS:
            for obj in get(mount):
                for method in methods:
                    self.wrap(obj, method, f"{layer}.{method}")

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for obj, attr, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, saved)
        self._saved.clear()

    def summarize(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """Per name: call count and self ns (span time minus the time
        its child spans cover); plus the ns covered by top-level spans."""
        n = len(self.starts)
        child = [0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        top_ns = 0
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p < 0:
                top_ns += dur
            else:
                child[p] += dur
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name_ids):
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child[i]
        return (
            dict(zip(self.names, calls)),
            dict(zip(self.names, self_ns)),
            top_ns,
        )

    def write(self, path: str) -> None:
        """One JSON header line, then the four columns as raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.starts),
            "columns": [
                ["name_id", self.name_ids.typecode],
                ["parent", self.parents.typecode],
                ["start_ns", self.starts.typecode],
                ["end_ns", self.ends.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_ids, self.parents, self.starts, self.ends):
                col.tofile(fh)


def load_spans(path: str) -> Dict[str, object]:
    """Read a file written by :meth:`SpanRecorder.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out: Dict[str, object] = {"names": header["names"]}
        for col, typecode in header["columns"]:
            arr = array(typecode)
            arr.fromfile(fh, header["count"])
            out[col] = arr
    return out
