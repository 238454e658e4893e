"""Tests of the benchmark itself (outside the ``tests`` testpath).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The end-to-end cases run ``run.py`` on ``mail_mix`` (about 40 s).
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from rep import _run_ops  # noqa: E402
from run import PROBE_REF_NS, end_to_end, host_scaled  # noqa: E402
from spans import load_spans  # noqa: E402
from streams import GENERATORS, Model  # noqa: E402

FS_WORKLOADS = sorted(GENERATORS)


def _fractions(mix):
    total = sum(mix.values())
    return {k: v / total for k, v in mix.items()}


@pytest.mark.parametrize("workload", FS_WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload):
    a, b = GENERATORS[workload](5), GENERATORS[workload](5)
    assert a.digest() == b.digest()
    assert a.timed == b.timed and a.populate == b.populate


@pytest.mark.parametrize("workload", FS_WORKLOADS)
def test_other_seed_gives_other_stream_with_same_mix(workload):
    a, b = GENERATORS[workload](5), GENERATORS[workload](6)
    assert a.digest() != b.digest()
    fa, fb = _fractions(a.mix()), _fractions(b.mix())
    assert fa.keys() == fb.keys()
    for kind in fa:
        assert abs(fa[kind] - fb[kind]) < 0.02, (kind, fa[kind], fb[kind])


def test_model_flags_wrong_reads_and_unpredicted_errors():
    from repro.betrfs.filesystem import MountOptions, make_betrfs
    from repro.vfs.vfs import FSError

    fs = make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32))
    ops = [("mkdir", "/d"), ("create", "/d/f"), ("write", "/d/f", 0, b"hello"),
           ("read", "/d/f", 0, 5), ("create", "/d/f"), ("unlink", "/d/f")]
    model = Model()
    assert _run_ops(fs.vfs, model, ops, FSError, None) == 0
    assert model.expect(("create", "/d")) == (errno.EEXIST, None)
    # A model that disagrees with the file system counts one failure
    # per op: a read returning other bytes, an error it did not predict.
    fs.vfs.create("/d/g")
    fs.vfs.write("/d/g", 0, b"abc")
    liar = Model()
    liar.dirs.add("/d")
    liar.files["/d/g"] = bytearray(b"xyz")
    assert _run_ops(fs.vfs, liar, [("read", "/d/g", 0, 3)], FSError, None) == 1
    assert _run_ops(fs.vfs, Model(), [("create", "/x/y")], FSError, None) == 0
    assert _run_ops(fs.vfs, Model(), [("unlink", "/d/g")], FSError, None) == 1


def test_host_scaling_follows_the_probe_and_best_of_reps_takes_each_op_min():
    ref = PROBE_REF_NS
    # A probe every 2 ops; in the second rep the host runs at half
    # speed from op 12 on, and the probes (from probe 6 on) show it.
    fast = {"lat_ns": [100] * 24, "setup_s": 1.0, "ops": 24, "peak_rss_mb": 1.0,
            "probes": [(op, ref) for op in range(0, 25, 2)]}
    slow = dict(fast, lat_ns=[100] * 12 + [200] * 12,
                probes=[(op, ref if op < 12 else 2 * ref) for op in range(0, 25, 2)])
    lat, setup = host_scaled(fast)
    assert lat == [100] * 24 and setup == 1.0
    lat, _setup = host_scaled(slow)
    # Stretches away from the change see only probes of their own
    # phase; the ones beside it are scaled by the median of both.
    assert lat[:6] == [100] * 6 and lat[-6:] == [100] * 6
    # A rep slowed throughout loses every op to a faster rep.
    slower = dict(fast, lat_ns=[300] * 24)
    e2e = end_to_end([fast, slower])
    assert e2e["ops_per_s"] == 24 / (2400 / 1e9)
    assert e2e["op_p50_us"] == e2e["op_p99_us"] == 0.1


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=175, check=False,
    )
    return proc


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_declared_metric(trace):
    proc = _bench("--workload", "mail_mix", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    with open(os.path.join(ROOT, ".perfbench", f"mail_mix-trace{trace}.json")) as fh:
        report = json.load(fh)
    digests = {json.dumps(d, sort_keys=True) for d in report["rep_digests"]}
    assert len(digests) == 1 and report["problems"] == []
    if trace == "1":
        spans = load_spans(os.path.join(ROOT, ".perfbench", "spans-mail_mix.bin"))
        calls = {}
        for i, nid in enumerate(spans["name_id"]):
            name = spans["names"][nid]
            calls[name] = calls.get(name, 0) + 1
            parent = spans["parent"][i]
            assert parent < i
            assert spans["start_ns"][i] <= spans["end_ns"][i]
            if parent >= 0:
                assert spans["start_ns"][parent] <= spans["start_ns"][i]
                assert spans["end_ns"][i] <= spans["end_ns"][parent]
        for name, n in calls.items():
            assert result["metrics"][f"{name}.calls"]["value"] == n


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "mail_mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
