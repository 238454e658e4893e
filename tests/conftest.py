"""Shared fixtures for the test suite."""

import contextlib
import io
import json

import pytest

from repro.check import lint
from repro.core.config import BeTreeConfig
from repro.core.env import KVEnv
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.kmem.allocator import KernelAllocator
from repro.model.costs import CostModel
from repro.model.profiles import COMMODITY_SSD, NULL_DEVICE
from repro.storage.sfl import SimpleFileLayer

MIB = 1 << 20


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def ssd(clock):
    return BlockDevice(clock, COMMODITY_SSD)


@pytest.fixture
def null_device(clock):
    return BlockDevice(clock, NULL_DEVICE)


@pytest.fixture
def alloc(clock, costs):
    return KernelAllocator(clock, costs)


@pytest.fixture
def small_config():
    """Small tree geometry so tests exercise splits and flushes."""
    cfg = BeTreeConfig()
    cfg.node_size = 8192
    cfg.basement_size = 2048
    cfg.buffer_size = 4096
    cfg.fanout = 4
    cfg.cache_bytes = 512 * 1024
    return cfg


def build_env(device, config, costs=None, **kwargs):
    costs = costs or CostModel()
    alloc = KernelAllocator(device.clock, costs)
    storage = SimpleFileLayer(device, costs, log_size=8 * MIB, meta_size=64 * MIB)
    kwargs.setdefault("log_size", 8 * MIB)
    kwargs.setdefault("meta_size", 64 * MIB)
    kwargs.setdefault("data_size", 256 * MIB)
    return KVEnv(storage, device.clock, costs, alloc, config, **kwargs)


@pytest.fixture
def env(ssd, small_config):
    return build_env(ssd, small_config)


@pytest.fixture
def fast_env(null_device, small_config):
    return build_env(null_device, small_config)


# ----------------------------------------------------------------------
# Full-tree ``repro.check lint`` runs, shared by every test that checks
# the real tree's composed report: one text run and one
# ``--format json --graph-out`` run per session instead of one per test.
# ----------------------------------------------------------------------
def _run_lint(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lint.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="session")
def lint_text_run():
    """``(rc, stdout)`` of ``repro.check lint`` on the real tree."""
    return _run_lint([])


@pytest.fixture(scope="session")
def lint_json_run(tmp_path_factory):
    """``(rc, payload, prefix)`` of ``repro.check lint --format json
    --graph-out PREFIX`` on the real tree."""
    prefix = str(tmp_path_factory.mktemp("lint") / "import-graph")
    rc, out = _run_lint(["--format", "json", "--graph-out", prefix])
    return rc, json.loads(out), prefix
