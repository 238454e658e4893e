"""Tests for the repro.check subsystem: lint, sanitizers, and fsck."""

import hashlib
import os

import pytest

from repro.check import lint
from repro.check.errors import (
    AllocInvariantError,
    CacheInvariantError,
    FsckError,
    TreeInvariantError,
)
from repro.check.fsck import fsck_device, load_image, save_image
from repro.core.env import DATA, META
from tests.test_env import LAYOUT, make_env, reopen, small_cfg

MIB = 1 << 20
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


# ======================================================================
# Lint
# ======================================================================
class TestLint:
    def test_repo_is_clean(self):
        assert lint.lint_repo() == []

    def test_prof_wallclock_is_the_only_allowlisted_finding(self):
        """Satellite: repro.obs.prof's single perf_counter_ns read is
        the ONE sanctioned wall-clock use in the whole package — the
        harness banner, bench, and dual-clock spans all derive from it."""
        found = lint.lint_repo(use_allowlist=False)
        assert len(found) == 1, [v.render() for v in found]
        [violation] = found
        assert violation.rule == "wall-clock"
        assert violation.path.replace(os.sep, "/").endswith("obs/prof.py")
        assert lint.DEFAULT_ALLOWLIST == {("obs/prof.py", "wall-clock")}

    @pytest.mark.parametrize(
        "fixture,rule",
        [
            ("bad_wall_clock.py", "wall-clock"),
            ("bad_perf_counter.py", "wall-clock"),
            ("bad_unseeded_random.py", "unseeded-random"),
            ("bad_dict_order.py", "dict-order"),
            ("bad_str_key.py", "str-key"),
            ("bad_mutable_default.py", "mutable-default"),
            ("bad_raw_device_io.py", "raw-device-io"),
            ("bad_bare_assert.py", "bare-assert"),
        ],
    )
    def test_each_rule_fires_on_its_fixture(self, fixture, rule):
        found = lint.lint_file(_fixture(fixture))
        assert found, f"{fixture} produced no violations"
        assert {v.rule for v in found} == {rule}

    def test_clean_fixture_has_no_false_positives(self):
        assert lint.lint_file(_fixture("clean_module.py")) == []

    def test_cli_exits_nonzero_on_fixture(self, capsys):
        rc = lint.main([_fixture("bad_wall_clock.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[wall-clock]" in out

    def test_cli_exits_zero_on_repo(self, lint_text_run):
        rc, out = lint_text_run
        assert rc == 0
        assert "clean" in out


# ======================================================================
# Runtime sanitizers
# ======================================================================
def _run_mixed_workload(sanitize: bool):
    """Puts, deletes, range-deletes, queries, checkpoint, recovery."""
    env, device = make_env(small_cfg(sanitize=sanitize))
    for i in range(700):
        env.insert(META, b"k%04d" % i, b"v%04d" % i)
        if i % 5 == 0:
            env.insert(DATA, b"d%04d" % i, b"x" * 300)
    for i in range(0, 700, 11):
        env.delete(META, b"k%04d" % i)
    env.range_delete(META, b"k0100", b"k0220")
    env.checkpoint()
    for i in range(300, 700, 7):
        env.get(META, b"k%04d" % i)
    env.range_delete(DATA, b"d0000", b"d0400")
    env.sync()
    return env, device


def _state_hash(device) -> str:
    h = hashlib.sha256()
    for off, data in device.store.snapshot():
        h.update(off.to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


class TestSanitizers:
    def test_mixed_workload_runs_clean_with_sanitizers(self):
        env, _device = _run_mixed_workload(sanitize=True)
        assert env.san is not None
        env.san.check_all()

    def test_sanitizers_are_pure_observers(self):
        """Satellite: with and without sanitizers, the same workload
        externalizes bit-identical device state in identical simulated
        time."""
        env_off, dev_off = _run_mixed_workload(sanitize=False)
        env_on, dev_on = _run_mixed_workload(sanitize=True)
        assert _state_hash(dev_off) == _state_hash(dev_on)
        assert env_off.clock.now == env_on.clock.now
        stats_off, stats_on = dev_off.stats, dev_on.stats
        assert (stats_off.reads, stats_off.writes, stats_off.flushes) == (
            stats_on.reads,
            stats_on.writes,
            stats_on.flushes,
        )

    def test_recovery_runs_under_sanitizers(self):
        env, device = _run_mixed_workload(sanitize=True)
        env2 = reopen(device, small_cfg(sanitize=True))
        assert env2.san is not None
        assert env2.get(META, b"k0301") == b"v0301"
        env2.san.check_all()

    def test_tree_sanitizer_rejects_disordered_pivots(self):
        env, _device = make_env(small_cfg(sanitize=True))
        for i in range(500):
            env.insert(META, b"k%04d" % i, b"v" * 40)
        root = env.meta._load_node(env.meta.root_id)
        assert root.pivots, "workload too small to split the root"
        root.pivots[0] = b"\xff" * 8  # now > every later pivot
        with pytest.raises(TreeInvariantError):
            env.san.check_node(env.meta, root)

    def test_cache_sanitizer_rejects_unbalanced_unpin(self):
        env, _device = make_env(small_cfg(sanitize=True))
        env.insert(META, b"k", b"v")
        with pytest.raises(CacheInvariantError):
            env.cache.unpin(999999)

    def test_cache_sanitizer_catches_untouched_size_change(self):
        """The running node-cache byte total re-measures only nodes
        handed out since the last measurement; a cached leaf that grows
        behind the cache's back must trip the full-recompute check."""
        from repro.core.messages import Insert

        env, _device = make_env(small_cfg(sanitize=True))
        env.insert(META, b"k", b"v")  # post-op eviction pass measures
        env.san.check_cache()
        leaf = next(n for _o, n in env.cache.all_nodes() if n.is_leaf)
        leaf.apply(Insert(b"kz", b"x" * 100, msn=1 << 40), 1 << 20)
        with pytest.raises(CacheInvariantError, match="without a get"):
            env.san.check_cache()
        with pytest.raises(CacheInvariantError, match="without a get"):
            env.cache.evict_to_fit(lambda o, n: None)
        env.cache.touch(leaf.node_id)
        env.cache.evict_to_fit(lambda o, n: None)
        env.san.check_cache()

    def test_alloc_sanitizer_rejects_double_free(self):
        env, _device = make_env(small_cfg(sanitize=True))
        buf = env.alloc.alloc(4096)
        env.alloc.free(buf)
        with pytest.raises(AllocInvariantError):
            env.alloc.free(buf)


class TestWorkloadBitIdentity:
    """Acceptance: sanitizer-enabled benchmark runs are bit-identical."""

    @pytest.mark.parametrize("workload", ["tokubench", "mailserver"])
    def test_smoke_workload_identical_with_sanitizers(self, workload):
        from repro.betrfs.filesystem import MountOptions, make_betrfs
        from repro.workloads.mailserver import mailserver
        from repro.workloads.scale import SMOKE_SCALE
        from repro.workloads.tokubench import tokubench

        def run(sanitize: bool):
            opts = MountOptions(config_tweaks={"sanitize": sanitize})
            fs = make_betrfs("BetrFS v0.6", opts)
            assert (fs.env.san is not None) == sanitize
            if workload == "tokubench":
                tokubench(fs, SMOKE_SCALE)
            else:
                mailserver(fs, SMOKE_SCALE)
            fs.sync()
            if sanitize:
                fs.env.san.check_all()
            return _state_hash(fs.device), fs.clock.now

        state_off, time_off = run(False)
        state_on, time_on = run(True)
        assert state_off == state_on
        assert time_off == time_on


# ======================================================================
# Offline fsck
# ======================================================================
class TestFsck:
    def _built_env(self):
        env, device = make_env()
        for i in range(900):
            env.insert(META, b"key%04d" % i, b"value%04d" % i)
            if i % 3 == 0:
                env.insert(DATA, b"data%04d" % i, b"y" * 256)
        env.checkpoint()
        for i in range(40):
            env.insert(META, b"post%02d" % i, b"tail")
        env.sync()
        return env, device

    def test_clean_image_fscks_clean(self):
        _env, device = self._built_env()
        report = fsck_device(
            device.crash_image(), log_size=8 * MIB, meta_size=64 * MIB
        )
        assert report.ok, report.render()
        assert report.trees_checked == 2
        assert report.nodes_checked > 0
        assert report.wal_entries == 40

    def test_flipped_byte_in_node_page_is_detected(self):
        """Acceptance: a deliberately corrupted node page fails fsck."""
        env, device = self._built_env()
        image = device.crash_image()
        off, ln = env.meta.blockman.lookup(env.meta.root_id)
        raw = bytearray(image.store.read(LAYOUT.meta_base + off, ln))
        raw[ln // 3] ^= 0x01  # single flipped bit
        image.store.write(LAYOUT.meta_base + off, bytes(raw))
        report = fsck_device(image, log_size=8 * MIB, meta_size=64 * MIB)
        assert not report.ok
        assert any("unreadable" in e for e in report.errors)
        with pytest.raises(FsckError):
            report.raise_if_errors()

    def test_pre_checkpoint_image_is_log_only(self):
        env, device = make_env()
        env.insert(META, b"k", b"v")
        env.sync()
        report = fsck_device(
            device.crash_image(), log_size=8 * MIB, meta_size=64 * MIB
        )
        assert report.ok, report.render()
        assert report.superblock_generation is None
        assert any("log-only" in w for w in report.warnings)
        assert report.wal_entries >= 1

    def test_image_roundtrip_and_container_crc(self, tmp_path):
        _env, device = self._built_env()
        path = str(tmp_path / "crash.img")
        save_image(device.crash_image(), path, log_size=8 * MIB, meta_size=64 * MIB)
        image = load_image(path)
        report = image.fsck()
        assert report.ok, report.render()
        # A corrupted container (not just a corrupted node) is refused.
        with open(path, "r+b") as fh:
            fh.seek(64)
            fh.write(b"\xff")
        with pytest.raises(FsckError):
            load_image(path)

    def _two_checkpoint_env(self):
        """Both superblock slots populated; returns (env, device)."""
        env, device = make_env()
        for i in range(200):
            env.insert(META, b"gen1-%04d" % i, b"a" * 64)
        env.checkpoint()
        for i in range(200):
            env.insert(META, b"gen2-%04d" % i, b"b" * 64)
        env.checkpoint()
        return env, device

    @staticmethod
    def _newest_slot(image):
        """(slot index, base offset, decoded superblock) of the newest
        valid slot in ``image``."""
        from repro.core.checkpoint import Superblock, _trim

        slot_size = Superblock.SLOT_SIZE
        best = None
        for idx in (0, 1):
            raw = image.store.read(idx * slot_size, slot_size)
            decoded = Superblock.deserialize(_trim(raw))
            if decoded is not None and (
                best is None or decoded.generation > best[2].generation
            ):
                best = (idx, idx * slot_size, decoded)
        assert best is not None, "no valid superblock slot"
        return best

    def test_flip_in_newest_slot_is_a_stale_fallback_error(self):
        """Satellite: media corruption of a *completed* newest slot must
        be reported — the older survivor is valid but stale."""
        _env, device = self._two_checkpoint_env()
        image = device.crash_image()
        _idx, base, newest = self._newest_slot(image)
        raw = bytearray(image.store.read(base, 4096))
        raw[20] ^= 0x01  # flip inside the payload; stamp stays intact
        image.store.write(base, bytes(raw))
        report = fsck_device(image, log_size=8 * MIB, meta_size=64 * MIB)
        assert not report.ok
        assert any("valid-but-stale" in e for e in report.errors)
        assert any(str(newest.generation) in e for e in report.errors)
        # fsck fell back to the older checkpoint and says so.
        assert report.superblock_generation == newest.generation - 1

    def test_torn_newest_slot_is_a_legal_fallback_warning(self):
        """A sector-prefix tear leaves no intact stamp: fsck warns about
        the torn write but does not error (legal crash artifact)."""
        import struct as _struct

        from repro.core.checkpoint import STAMP_SIZE

        _env, device = self._two_checkpoint_env()
        image = device.crash_image()
        _idx, base, _newest = self._newest_slot(image)
        raw = bytearray(image.store.read(base, 4096))
        (length,) = _struct.unpack_from("<I", raw, 0)
        frame_end = 4 + length + STAMP_SIZE
        keep = 4 + length // 2  # mid-blob tear: CRC broken, stamp gone
        raw[keep:frame_end] = b"\x00" * (frame_end - keep)
        image.store.write(base, bytes(raw))
        report = fsck_device(image, log_size=8 * MIB, meta_size=64 * MIB)
        assert report.ok, report.render()
        assert any("torn checkpoint write" in w for w in report.warnings)

    def test_harness_cli_fsck_on_saved_image(self, tmp_path):
        from repro.harness.__main__ import main as harness_main

        _env, device = self._built_env()
        path = str(tmp_path / "crash.img")
        save_image(device.crash_image(), path, log_size=8 * MIB, meta_size=64 * MIB)
        assert harness_main(["fsck", path, "--quiet"]) == 0
