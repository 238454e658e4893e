"""One rep of one workload, in a fresh process.

Run by ``run.py`` as ``python3 perfbench/rep.py <workload> <seed>
<traced 0|1> <spawn monotonic ns> <spans path or ->``; prints one JSON
object with the rep's timings, simulated outputs, correctness and (when
traced) per-layer table.  The spawn time lets ``setup_s`` count the
interpreter start and imports, which a later change could slow.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import json  # noqa: E402
import resource  # noqa: E402
from array import array  # noqa: E402

from spans import CHECKER_SPANS, SpanRecorder  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Ops between host-speed probes in the timed phase, and the probe's
#: loop length (about 10 ms).
PROBE_EVERY = 512
PROBE_STEPS = 100_000
#: ast.parse calls between probes in static_check (about 0.4 s).
STATIC_PROBE_EVERY = 64


def probe_ns() -> int:
    """Nanoseconds for a fixed integer loop that touches almost no
    memory: how fast the host runs this process right now."""
    t0 = time.perf_counter_ns()
    x = 0
    for i in range(PROBE_STEPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter_ns() - t0


def _run_ops(vfs, model, ops, fs_error, lat, probes=None):
    """The client loop: one closed-loop client, no think time.  Each
    call is timed alone; the model's prediction and the comparison
    happen outside the timed call.  With ``probes``, a host-speed probe
    runs between calls every PROBE_EVERY ops and before the first, and
    ``(ops done, probe ns)`` is appended.  Returns the failure count."""
    clock = time.perf_counter_ns
    failed = 0
    for i, op in enumerate(ops):
        if probes is not None and i % PROBE_EVERY == 0:
            probes.append((i, probe_ns()))
        want_err, want = model.expect(op)
        fn = getattr(vfs, op[0])
        args = op[1:]
        t0 = clock()
        try:
            out = fn(*args)
        except fs_error as exc:
            t1 = clock()
            err, out = exc.code, None
        else:
            t1 = clock()
            err = 0
        if lat is not None:
            lat.append(t1 - t0)
        if err != want_err:
            failed += 1
        elif want is not None and (out.size if op[0] == "stat" else out) != want:
            failed += 1
        if err == 0 and want_err == 0:
            model.apply(op)
    return failed


def _counters(mount) -> dict:
    pages, nodes, io = mount.vfs.pages, mount.env.cache, mount.device.stats
    return {
        "pagecache_hits": pages.hits,
        "pagecache_misses": pages.misses,
        "nodecache_hits": nodes.hits,
        "nodecache_misses": nodes.misses,
        "nodecache_evictions": nodes.evictions,
        "nodecache_dirty_evictions": nodes.dirty_evictions,
        "checkpoints": mount.env.checkpoints,
        "device_bytes_written": io.bytes_written,
        "device_bytes_read": io.bytes_read,
        "device_flushes": io.flushes,
        "device_busy_s": io.busy_time,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layer_counters(c0: dict, c1: dict, client_bytes: int) -> dict:
    """Deterministic per-layer counters over the timed phase; write
    amplification is device bytes per byte the client wrote."""
    d = {k: c1[k] - c0[k] for k in c0}
    return {
        "vfs.pagecache.hit_ratio": _ratio(
            d["pagecache_hits"], d["pagecache_hits"] + d["pagecache_misses"]
        ),
        "core.env.checkpoints": d["checkpoints"],
        "core.cache.hit_ratio": _ratio(
            d["nodecache_hits"], d["nodecache_hits"] + d["nodecache_misses"]
        ),
        "core.cache.evictions": d["nodecache_evictions"],
        "core.cache.dirty_evictions": d["nodecache_dirty_evictions"],
        "device.write_amp": _ratio(d["device_bytes_written"], client_bytes),
        "device.bytes_read": d["device_bytes_read"],
        "device.flushes": d["device_flushes"],
        "device.busy_sim_s": d["device_busy_s"],
    }


def run_fs(workload: str, seed: int, traced: bool, spawn_ns: int, spans_out: str) -> dict:
    from repro.check.fsck import fsck_device
    from repro.harness.mt import device_sha256
    from repro.harness.runner import make_mount
    from repro.vfs.vfs import FSError
    from repro.workloads.scale import DEFAULT_SCALE
    from streams import GENERATORS, Model

    streams = GENERATORS[workload](seed)
    mount = make_mount("BetrFS v0.6", DEFAULT_SCALE)
    model = Model()
    failed = _run_ops(mount.vfs, model, streams.populate, FSError, None)
    client_bytes = sum(len(op[3]) for op in streams.timed if op[0] == "write")
    rec = SpanRecorder() if traced else None
    if rec is not None:
        rec.wrap_mount(mount)
    c0 = _counters(mount)
    sim0 = mount.clock.now
    lat = array("q")
    t_first = time.monotonic_ns()
    probes = []
    failed += _run_ops(mount.vfs, model, streams.timed, FSError, lat, probes)
    probes.append((len(streams.timed), probe_ns()))
    sim_timed = mount.clock.now - sim0
    c1 = _counters(mount)
    if rec is not None:
        rec.unwrap()
    mount.vfs.sync()
    report = fsck_device(
        mount.device,
        log_size=mount.opts.log_size,
        meta_size=mount.opts.meta_size,
        aligned=mount.config.page_sharing,
    )
    out = {
        "ops": len(streams.timed),
        "failed": failed,
        "fsck_errors": len(report.errors),
        "setup_s": (t_first - spawn_ns) / 1e9,
        "lat_ns": list(lat),
        "timed_ns": sum(lat),
        "probes": probes,
        "sim_timed_s": sim_timed,
        "sim_clock": mount.clock.now,
        "device_sha256": device_sha256(mount.device),
        "stream_sha256": streams.digest(),
        "counters": _layer_counters(c0, c1, client_bytes),
    }
    if rec is not None:
        _add_spans(out, rec, spans_out)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


class _ParseProbe:
    """Times static_check's one call as segments with probes between.

    Installed as ``ast.parse`` in untraced reps: every
    ``STATIC_PROBE_EVERY`` parses it closes the running segment, runs the
    host-speed probe and opens the next, so probe time stays out of the
    segments.  Parses come in the same order in every rep, so segment
    ``k`` is the same work in each.  ``cut`` closes the last segment;
    a traced rep does not install it and times the call as one segment."""

    def __init__(self, parse) -> None:
        self.parse = parse
        self.calls = 0
        self.segments = array("q")
        self.probes = [(0, probe_ns())]
        self.start = time.perf_counter_ns()

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls % STATIC_PROBE_EVERY == 0:
            self.cut()
        return self.parse(*args, **kwargs)

    def cut(self) -> None:
        self.segments.append(time.perf_counter_ns() - self.start)
        self.probes.append((len(self.segments), probe_ns()))
        self.start = time.perf_counter_ns()


def run_static_check(traced: bool, spawn_ns: int, spans_out: str) -> dict:
    import ast
    import contextlib
    import importlib
    import io

    from repro.check import lint

    root = lint.repo_root()
    files = sum(
        name.endswith(".py")
        for dirpath, _dirs, names in os.walk(root)
        if "__pycache__" not in dirpath
        for name in names
    )
    # The passes' modules load during set-up in both runs, so a traced
    # rep times the same work as an untraced one.
    modules = [importlib.import_module(module) for _n, module, _a in CHECKER_SPANS]
    rec = SpanRecorder() if traced else None
    if rec is not None:
        for (name, _module, attr), mod in zip(CHECKER_SPANS, modules):
            rec.wrap(mod, attr, name)
    buf = io.StringIO()
    t_first = time.monotonic_ns()
    timer = _ParseProbe(ast.parse)
    if rec is None:
        ast.parse = timer
    with contextlib.redirect_stdout(buf):
        rc = lint.main(["--format", "json"])
    timer.cut()
    if rec is None:
        ast.parse = timer.parse
    else:
        rec.unwrap()
    findings = len(json.loads(buf.getvalue())["violations"])
    out = {
        "ops": files,
        "failed": findings + (1 if rc != 0 and not findings else 0),
        "fsck_errors": 0,
        "setup_s": (t_first - spawn_ns) / 1e9,
        "lat_ns": list(timer.segments),
        "timed_ns": sum(timer.segments),
        "probes": timer.probes,
        "counters": {},
    }
    if rec is not None:
        _add_spans(out, rec, spans_out)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _add_spans(out: dict, rec: SpanRecorder, spans_out: str) -> None:
    calls, self_ns, top_ns = rec.summarize()
    out["calls"] = calls
    out["self_s"] = {k: v / 1e9 for k, v in self_ns.items()}
    out["unattributed_s"] = (out["timed_ns"] - top_ns) / 1e9
    out["spans"] = len(rec.starts)
    if spans_out != "-":
        rec.write(spans_out)


def main(argv) -> int:
    workload, seed, traced, spawn_ns, spans_out = argv
    if workload == "static_check":
        out = run_static_check(traced == "1", int(spawn_ns), spans_out)
    else:
        out = run_fs(workload, int(seed), traced == "1", int(spawn_ns), spans_out)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
