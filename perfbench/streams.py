"""Seeded op-stream generators and the reference model the benchmark
checks every VFS result against.

An op is a plain tuple ``(kind, *args)`` naming one call on the public
``mount.vfs`` API.  Every stream is fully materialised before the timed
phase starts, so the simulator receives only generated inputs and the
client loop does no generation work while it is being timed.

Every workload is one closed-loop client in one process, with no think
time, on BetrFS v0.6 at the ``default`` scale (13 MiB page cache, 4 MiB
dirty limit, 10 MiB node cache):

- ``tree_copy`` (Figure 2a): untar a 1600-file, 20 MiB tree, drop
  caches, tar it into one archive.  The tree is larger than both caches.
  Sync after the untar, fsync of the archive.  Writes and cold
  sequential reads through the page cache, ``betrfs`` and
  ``core.env.get``.
- ``mail_mix`` (Figure 2d): 1200 8 KiB messages (9.4 MiB, fits the page
  cache); fsync after every mark and delivery.  Stresses fsync, rename,
  unlink and cache-hit reads; little eviction.
- ``static_check`` (in ``rep.py``): the composed ``repro.check.lint``
  over ``src/repro``; no file system, caches or flushes.  The only
  workload on the checkers.
"""

from __future__ import annotations

import errno
import hashlib
import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.workloads.trees import file_content, linux_like_tree

MIB = 1 << 20

Op = Tuple

#: tree_copy: Figure 2a untar + tar of a default-scale Linux-like tree.
TREE_FILES = 1600
TREE_BYTES = 20 * MIB
TAR_ARCHIVE = "/archive.tar"
TAR_CHUNK = MIB
TAR_HEADER = b"\x00" * 512

#: mail_mix: Figure 2d Dovecot mix over 10 folders x 120 8 KiB messages.
MAIL_FOLDERS = 10
MAIL_MSGS_PER_FOLDER = 120
MAIL_MSG_BYTES = 8192
MAIL_MIX_OPS = 6000
MAIL_MIX = (("read", 0.50), ("mark", 0.25), ("move", 0.12), ("delete", 0.13))
MAIL_MARK = b"Status: RO\r\n"


def _mail_path(folder: int, msg_id: int) -> str:
    return f"/mail/folder{folder:02d}/cur/m{msg_id:07d}"


def _mail_body(msg_id: int) -> bytes:
    head = f"Subject: message {msg_id}\r\n\r\n".encode()
    return head + b"m" * (MAIL_MSG_BYTES - len(head))


class Streams:
    """A workload's generated input: untimed population, timed ops."""

    def __init__(self, populate: List[Op], timed: List[Op]) -> None:
        self.populate = populate
        self.timed = timed

    def digest(self) -> str:
        """sha256 over both streams, byte for byte."""
        h = hashlib.sha256()
        for phase in (self.populate, self.timed):
            h.update(b"\x01")
            for op in phase:
                for arg in op:
                    if isinstance(arg, bytes):
                        h.update(b"b%d:" % len(arg))
                        h.update(arg)
                    else:
                        h.update(f"{type(arg).__name__}:{arg}\x00".encode())
                h.update(b"\x02")
        return h.hexdigest()

    def mix(self) -> Dict[str, int]:
        """Timed-phase op counts by kind."""
        return dict(Counter(op[0] for op in self.timed))


def tree_copy(seed: int) -> Streams:
    """Untar a seeded Linux-like tree, drop caches, tar it to one
    archive.  Each rep is one such cycle on a fresh mount."""
    spec = linux_like_tree("/src", TREE_FILES, TREE_BYTES, seed=seed)
    bodies = [
        file_content(size, with_needle=(i % 37 == 0))
        for i, (_path, size) in enumerate(spec.files)
    ]
    ops: List[Op] = [("mkdir", d) for d in spec.dirs]
    for (path, size), body in zip(spec.files, bodies):
        ops.append(("create", path))
        for pos in range(0, size, TAR_CHUNK):
            ops.append(("write", path, pos, body[pos : pos + TAR_CHUNK]))
    ops.append(("sync",))
    ops.append(("drop_caches",))
    ops.append(("create", TAR_ARCHIVE))
    out = 0
    for (path, size), body in zip(spec.files, bodies):
        ops.append(("stat", path))
        for pos in range(0, size, TAR_CHUNK):
            chunk = body[pos : pos + TAR_CHUNK]
            ops.append(("read", path, pos, TAR_CHUNK))
            ops.append(("write", TAR_ARCHIVE, out, chunk))
            out += len(chunk)
        ops.append(("write", TAR_ARCHIVE, out, TAR_HEADER))
        out += len(TAR_HEADER)
    ops.append(("fsync", TAR_ARCHIVE))
    return Streams([], ops)


def mail_mix(seed: int) -> Streams:
    """Dovecot mix: 50% read, 25% mark, 12% move, 13% delete, each
    delete followed by a delivery so the population holds steady."""
    rng = random.Random(seed)
    populate: List[Op] = [("mkdir", "/mail")]
    folders: List[List[int]] = []
    next_id = 0
    for f in range(MAIL_FOLDERS):
        populate.append(("mkdir", f"/mail/folder{f:02d}"))
        populate.append(("mkdir", f"/mail/folder{f:02d}/cur"))
        ids = []
        for _ in range(MAIL_MSGS_PER_FOLDER):
            path = _mail_path(f, next_id)
            populate.append(("create", path))
            populate.append(("write", path, 0, _mail_body(next_id)))
            ids.append(next_id)
            next_id += 1
        folders.append(ids)
    populate.append(("sync",))
    populate.append(("drop_caches",))
    # Exact op counts, shuffled: every seed gives the same mix.
    kinds = [
        kind
        for kind, share in MAIL_MIX
        for _ in range(round(share * MAIL_MIX_OPS))
    ]
    rng.shuffle(kinds)
    ops: List[Op] = []
    for kind in kinds:
        f = rng.randrange(MAIL_FOLDERS)
        while not folders[f]:
            f = (f + 1) % MAIL_FOLDERS
        if kind == "read":
            ops.append(("read", _mail_path(f, rng.choice(folders[f])), 0, MAIL_MSG_BYTES))
        elif kind == "mark":
            path = _mail_path(f, rng.choice(folders[f]))
            ops.append(("write", path, 0, MAIL_MARK))
            ops.append(("fsync", path))
        elif kind == "move":
            msg = folders[f].pop(rng.randrange(len(folders[f])))
            g = rng.randrange(MAIL_FOLDERS)
            ops.append(("rename", _mail_path(f, msg), _mail_path(g, next_id)))
            folders[g].append(next_id)
            next_id += 1
        else:
            msg = folders[f].pop(rng.randrange(len(folders[f])))
            ops.append(("unlink", _mail_path(f, msg)))
            g = rng.randrange(MAIL_FOLDERS)
            path = _mail_path(g, next_id)
            ops.append(("create", path))
            ops.append(("write", path, 0, _mail_body(next_id)))
            ops.append(("fsync", path))
            folders[g].append(next_id)
            next_id += 1
    return Streams(populate, ops)


GENERATORS = {
    "tree_copy": tree_copy,
    "mail_mix": mail_mix,
}


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


class Model:
    """Reference model of the namespace and file contents.

    :meth:`expect` predicts an op's outcome from the model alone:
    ``(errno or 0, expected result)``, where the result is the bytes a
    read returns or the size a stat reports.  :meth:`apply` then
    advances the model past an op that succeeded.
    """

    def __init__(self) -> None:
        self.dirs = {"/"}
        self.files: Dict[str, bytearray] = {}

    def expect(self, op: Op) -> Tuple[int, Optional[object]]:
        kind = op[0]
        if kind in ("sync", "drop_caches"):
            return 0, None
        path = op[1]
        if kind in ("mkdir", "create"):
            if _parent(path) not in self.dirs:
                return errno.ENOENT, None
            if path in self.dirs or path in self.files:
                return errno.EEXIST, None
            return 0, None
        if kind == "rename":
            dst = op[2]
            if path not in self.files or _parent(dst) not in self.dirs:
                return errno.ENOENT, None
            if path == dst:
                return errno.EINVAL, None
            return 0, None
        if path in self.dirs:
            if kind in ("write", "unlink"):
                return errno.EISDIR, None
            return 0, None
        body = self.files.get(path)
        if body is None:
            return errno.ENOENT, None
        if kind == "read":
            off, length = op[2], op[3]
            return 0, bytes(body[off : off + length])
        if kind == "stat":
            return 0, len(body)
        return 0, None

    def apply(self, op: Op) -> None:
        kind = op[0]
        if kind == "mkdir":
            self.dirs.add(op[1])
        elif kind == "create":
            self.files[op[1]] = bytearray()
        elif kind == "write":
            body = self.files[op[1]]
            off, data = op[2], op[3]
            if len(body) < off:
                body.extend(b"\x00" * (off - len(body)))
            body[off : off + len(data)] = data
        elif kind == "rename":
            self.files[op[2]] = self.files.pop(op[1])
        elif kind == "unlink":
            del self.files[op[1]]
