"""Outside-in benchmark of the BetrFS v0.6 simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each rep runs in a fresh process
(``rep.py``) that mounts BetrFS v0.6 at the ``default`` scale (13 MiB
page cache, 4 MiB dirty limit, 10 MiB node cache, 1/16 node geometry),
feeds a seeded op stream to ``mount.vfs`` from one closed-loop client
and times every call.  Reps repeat until ``--seconds`` is used up (at
least three untraced, or one untraced plus two traced).

Timings are host-scaled wall times.  A shared host's speed swings by up
to 2x for seconds at a time, so ``rep.py`` times a fixed integer loop
(the probe) between ops every ``PROBE_EVERY`` ops, and each stretch of
ops is scaled to a host on which the probe takes ``PROBE_REF_NS``.
Reps run the same seed with one hash seed (``PYTHONHASHSEED=0``), so op
``i`` does the same work in every rep; ``ops_per_s``, ``op_p50_us`` and
``op_p99_us`` are taken over each op's fastest scaled latency across the
untraced reps, ``setup_s`` (spawn to first timed op, scaled by the first
probes) and ``peak_rss_mb`` are medians over reps.  The report keeps the
unscaled wall times and the probe times per rep.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer table from traced reps, whose wrappers are installed from
``spans.py`` on the mount's layer instances.  Every run checks reads
against a reference model, fsck on the final device image, a clean
``static_check``, that reps of one seed agree on the simulated clock,
device sha256 and per-layer call counts, and that traced reps reproduce
the untraced simulated clock and sha256.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; a fuller report (sample counts, probe times, digests)
goes to ``.perfbench/<workload>-trace<t>.json`` and spans to
``.perfbench/spans-<workload>.bin``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from spans import CHECKER_SPANS, fs_span_names  # noqa: E402

WORKLOADS = ("tree_copy", "mail_mix", "static_check")

#: Deterministic per-layer counters computed by rep.py, with units.
COUNTERS = {
    "vfs.pagecache.hit_ratio": "ratio",
    "core.env.checkpoints": "count",
    "core.cache.hit_ratio": "ratio",
    "core.cache.evictions": "count",
    "core.cache.dirty_evictions": "count",
    "device.write_amp": "ratio",
    "device.bytes_read": "B",
    "device.flushes": "count",
    "device.busy_sim_s": "sim_s",
}

#: Caps that keep any run, whatever --seconds, inside three minutes.
REP_TIMEOUT_S = 150
RUN_BUDGET_S = 160


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}.bin") if traced else "-"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed),
         "1" if traced else "0", str(time.monotonic_ns()), spans_out],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        timeout=REP_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"rep of {workload} failed with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, trace: bool):
    """(untraced reps, traced reps), sized to fill ``seconds``."""
    plan = [False, True, True] if trace else [False, False, False]
    reps = {False: [], True: []}
    start = time.monotonic()
    took = []
    while plan or (
        time.monotonic() - start + statistics.mean(took) <= min(seconds, RUN_BUDGET_S)
    ):
        kind = plan.pop(0) if plan else trace
        t0 = time.monotonic()
        reps[kind].append(run_rep(workload, seed, kind))
        took.append(time.monotonic() - t0)
    return reps[False], reps[True]


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


#: The host-speed probe's time on the reference host: every timing is
#: reported as if each probe near it had taken this long.
PROBE_REF_NS = 10_000_000

#: Probes on each side of a stretch of ops whose median scales it.
PROBE_WINDOW = 3


def host_scaled(rep: dict):
    """The rep's op latencies and set-up time, scaled to the reference host.

    ``rep.py`` runs a fixed probe loop between ops every ``PROBE_EVERY``
    ops.  On a host whose cores and caches are shared with other
    tenants, speed swings by up to 2x for seconds at a time, and the
    probe slows with it.  Each stretch of ops between two probes is
    scaled by ``PROBE_REF_NS`` over the median of the ``PROBE_WINDOW``
    probes on each side of it, which follows those swings while one
    probe's jitter averages out; set-up is scaled by the first probes."""
    probes = rep["probes"]
    times = [ns for _ops, ns in probes]
    lat = rep["lat_ns"]
    scaled = []
    for k in range(len(probes) - 1):
        near = times[max(0, k - PROBE_WINDOW + 1) : k + PROBE_WINDOW + 1]
        scale = PROBE_REF_NS / statistics.median(near)
        scaled.extend(x * scale for x in lat[probes[k][0] : probes[k + 1][0]])
    setup_scale = PROBE_REF_NS / statistics.median(times[:PROBE_WINDOW])
    return scaled, rep["setup_s"] * setup_scale


def end_to_end(untraced) -> dict:
    """Throughput and latency percentiles over each op's fastest scaled
    latency across the untraced reps; set-up time as the median over
    reps.

    Reps of one seed replay the same op stream on the same program in
    fresh processes with one hash seed, so op ``i`` does the same work
    in every rep, and whatever still makes one rep's op ``i`` slower
    than another's after scaling came from the host.  The per-op
    minimum keeps every cost the program pays on each run, its own
    eviction, sync and GC pauses included."""
    scaled = [host_scaled(r) for r in untraced]
    best = [min(col) for col in zip(*(lat for lat, _setup in scaled))]
    ops = untraced[0]["ops"]
    # static_check times segments of one call, not single ops: each
    # file's latency is then the call's time per file.
    ranked = sorted(best) if len(best) == ops else [sum(best) / ops]
    return {
        "ops_per_s": ops / (sum(best) / 1e9),
        "op_p50_us": percentile(ranked, 0.50) / 1e3,
        "op_p99_us": percentile(ranked, 0.99) / 1e3,
        "setup_s": statistics.median(setup for _lat, setup in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer(untraced, traced) -> dict:
    """The per-layer table; every name in every workload, 0 where a
    workload does not reach a layer."""
    out = {}
    span_names = fs_span_names() + [name for name, _m, _a in CHECKER_SPANS]
    for name in span_names:
        calls = traced[0]["calls"].get(name, 0)
        self_s = statistics.median(r["self_s"].get(name, 0.0) for r in traced)
        if name == "checkers.ast_parse":
            out[f"{name}.calls"] = (calls, "count")
        elif name.startswith("checkers."):
            out[f"{name}.self_s"] = (self_s, "s")
        else:
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
    for name, unit in COUNTERS.items():
        out[name] = (traced[0]["counters"].get(name, 0), unit)
    sim_s = traced[0].get("sim_timed_s")
    out["sim.ops_per_s"] = (traced[0]["ops"] / sim_s if sim_s else 0.0, "ops/sim_s")
    out["unattributed_s"] = (statistics.median(r["unattributed_s"] for r in traced), "s")
    out["tracing_overhead_ratio"] = (
        statistics.median(r["timed_ns"] for r in traced)
        / statistics.median(r["timed_ns"] for r in untraced),
        "ratio",
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def check(untraced, traced) -> list:
    """Correctness and determinism problems, as messages."""
    problems = []
    reps = untraced + traced
    for i, r in enumerate(reps):
        if r["failed"]:
            problems.append(f"rep {i}: {r['failed']} failed op(s) or finding(s)")
        if r["fsck_errors"]:
            problems.append(f"rep {i}: fsck found {r['fsck_errors']} error(s)")
    for key in ("sim_clock", "device_sha256", "stream_sha256", "counters", "ops"):
        values = {json.dumps(r.get(key), sort_keys=True) for r in reps}
        if len(values) > 1:
            problems.append(f"{key} differs between reps of one seed"
                            + (" (traced vs untraced)" if traced else ""))
    if len({json.dumps(r["calls"], sort_keys=True) for r in traced}) > 1:
        problems.append("per-layer call counts differ between traced reps")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perfbench: src/repro not found beside perfbench/; "
                         "run from a checkout of the repository\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    untraced, traced = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e = end_to_end(untraced)
    problems = check(untraced, traced)
    attempted = sum(r["ops"] for r in untraced + traced)
    failed = sum(r["failed"] + r["fsck_errors"] for r in untraced + traced)
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    samples = [len(r["lat_ns"]) for r in untraced]
    probe_ms = [
        round(statistics.median(ns for _ops, ns in r["probes"]) / 1e6, 3)
        for r in untraced + traced
    ]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reps": {"untraced": len(untraced), "traced": len(traced)},
        "latency_samples_per_rep": samples,
        "end_to_end": e2e,
        "failed_ops_frac": failed / attempted,
        # Unscaled, for comparing hosts and spotting a noisy one.
        "probe_ms_per_rep": probe_ms,
        "wall_timed_s_per_rep": [r["timed_ns"] / 1e9 for r in untraced + traced],
        "wall_setup_s_per_rep": [r["setup_s"] for r in untraced + traced],
        "problems": problems,
        "rep_digests": [
            {k: r.get(k) for k in ("sim_clock", "device_sha256", "stream_sha256", "ops")}
            for r in untraced + traced
        ],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for msg in problems:
        sys.stderr.write(f"perfbench: {msg}\n")
    sys.stderr.write(
        f"perfbench {args.workload} seed={args.seed}: reps={report['reps']} "
        f"latency samples per rep={samples} failed_ops_frac={report['failed_ops_frac']:.3g} "
        f"probe_ms_per_rep={probe_ms}\n"
    )
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
