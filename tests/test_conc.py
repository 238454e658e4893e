"""Tests for ``repro.check.conc``: the static concurrency analyzer.

Same two families as the other whole-program analyses
(``tests/test_arch_costflow.py``):

* a fixture tree under ``tests/fixtures/conc/tree`` proves every rule
  *can* fire (a rule whose failing fixture passes checks nothing), and
  that waivers suppress exactly what they claim;
* self-tests prove the real ``src/repro`` tree is clean, so any new
  finding is a regression introduced by the change under review.

Plus the static/dynamic agreement suite this PR is really about:

* the deliberately deadlocking fixture is flagged statically as a
  ``lock-cycle`` AND raises ``SchedInvariantError`` when actually
  scheduled against a real mount — one fixture, both checkers;
* every lock-acquisition order observed at runtime by ``harness mt``
  (and by hypothesis-generated mailserver move keys) is an edge of the
  static lock graph — the graph is a sound over-approximation.
"""

import importlib.util
import json
import os

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.betrfs.filesystem import make_betrfs
from repro.check import arch, conc, lint
from repro.check.errors import SchedInvariantError
from repro.check.index import load
from repro.harness.mt import run_mt
from repro.sched import Scheduler
from repro.workloads.mailserver_mt import _folder_key
from repro.workloads.scale import SMOKE_SCALE

CONC_TREE = os.path.join(os.path.dirname(__file__), "fixtures", "conc", "tree")

#: Layer manifest for the conc fixture tree (top -> bottom).
FIX_MANIFEST = (
    ("scripts", ("concpkg.scripts",)),
    ("engine", ("concpkg.engine",)),
)

#: Signal ownership for the fixture tree: ``tree_io`` belongs to the
#: lower ``engine`` layer, so a fire up in ``scripts`` is misplaced.
FIX_SIGNALS = {"tree_io": "engine", "fsync": "scripts"}

_CACHE = {}


def _fixture_report():
    if "fixture" not in _CACHE:
        _CACHE["fixture"] = conc.analyze(
            load(CONC_TREE, "concpkg"),
            manifest=FIX_MANIFEST,
            signal_layers=FIX_SIGNALS,
        )
    return _CACHE["fixture"]


def _real_report():
    if "real" not in _CACHE:
        _CACHE["real"] = conc.analyze()
    return _CACHE["real"]


def _by_rule(report):
    grouped = {}
    for violation in report.violations:
        grouped.setdefault(violation.rule, []).append(violation)
    return grouped


# ======================================================================
# Fixture tree: every rule fires, and only where it should
# ======================================================================
class TestConcFixtures:
    def test_every_rule_fires(self):
        grouped = _by_rule(_fixture_report())
        assert set(grouped) == {
            "lock-cycle",
            "critical-yield",
            "lock-leak",
            "signal-misplaced",
            "signal-unguarded",
            "conc-impure",
            "unused-waiver",
        }, [v.render() for v in _fixture_report().violations]

    def test_lock_cycle_fixtures(self):
        """Four distinct cycle shapes: explicit AB/BA, the unsorted
        loop (wildcard self-edge), the unsorted cross-shard pair (the
        ``shard:`` f-string class), and the runtime-deadlock twin."""
        cycles = _by_rule(_fixture_report())["lock-cycle"]
        anchors = sorted(
            (os.path.basename(v.path), v.line) for v in cycles
        )
        assert anchors == [
            ("bad_cycle.py", 11),
            ("bad_unsorted.py", 12),
            ("bad_xshard.py", 12),
            ("deadlock_workload.py", 24),
        ], [v.render() for v in cycles]

    def test_xshard_cycle_names_the_shard_class(self):
        [v] = [
            v
            for v in _by_rule(_fixture_report())["lock-cycle"]
            if v.path.endswith("bad_xshard.py")
        ]
        assert "shard:" in v.message

    def test_cycle_message_names_both_locks_and_chain(self):
        [v] = [
            v
            for v in _by_rule(_fixture_report())["lock-cycle"]
            if v.path.endswith("bad_cycle.py")
        ]
        assert "order:a" in v.message and "order:b" in v.message

    def test_critical_yield(self):
        [v] = _by_rule(_fixture_report())["critical-yield"]
        assert v.path.endswith("bad_critical_yield.py") and v.line == 11

    def test_lock_leak(self):
        [v] = _by_rule(_fixture_report())["lock-leak"]
        assert v.path.endswith("bad_lock_leak.py") and v.line == 11
        assert "leak:1" in v.message

    def test_signal_misplaced(self):
        [v] = _by_rule(_fixture_report())["signal-misplaced"]
        assert v.path.endswith("bad_signal_layer.py") and v.line == 17
        assert "tree_io" in v.message and "engine" in v.message

    def test_signal_unguarded(self):
        [v] = _by_rule(_fixture_report())["signal-unguarded"]
        assert v.path.endswith("bad_signal_unguarded.py") and v.line == 12

    def test_impure_session_path(self):
        [v] = _by_rule(_fixture_report())["conc-impure"]
        assert v.path.endswith("bad_impure.py") and v.line == 23
        # Evidence: the call chain from the session entry point.
        assert "run" in v.message and "_cheat" in v.message

    def test_clean_fixtures_stay_clean(self):
        """good.py and engine/core.py exercise every *correct* idiom
        (sorted loop, helper key builder, try/finally critical section,
        local-variable signal guard) and must produce nothing."""
        for violation in _fixture_report().violations:
            assert not violation.path.endswith("good.py"), violation.render()
            assert not violation.path.endswith("core.py"), violation.render()

    def test_waiver_suppresses_exactly_one_finding(self):
        report = _fixture_report()
        for violation in report.violations:
            assert not violation.path.endswith("waived.py"), violation.render()
        used = [w for w in report.waivers if "waived.py:11" in w]
        assert len(used) == 1, report.waivers
        assert "ownership is handed off" in used[0]

    def test_unused_waivers_flagged(self):
        unused = _by_rule(_fixture_report())["unused-waiver"]
        lines = sorted(
            v.line for v in unused if v.path.endswith("unused.py")
        )
        assert lines == [10, 14], [v.render() for v in unused]

    def test_fixture_lock_graph_shape(self):
        graph = _fixture_report().lock_graph
        assert set(graph.nodes) >= {
            "alpha", "beta", "g:", "order:a", "order:b", "shard:",
        }
        pairs = {(e.src, e.dst, e.ordered) for e in graph.edges}
        # The deadlock fixture contributes both directions, unordered.
        assert ("alpha", "beta", False) in pairs
        assert ("beta", "alpha", False) in pairs
        # good.py's sorted loop contributes the ordered self-edge.
        assert ("g:", "g:", True) in pairs


# ======================================================================
# Real tree: clean, and its graph matches the mailserver design
# ======================================================================
class TestRealTree:
    def test_real_tree_is_clean(self):
        report = _real_report()
        assert report.ok, [v.render() for v in report.violations]

    def test_real_tree_coverage(self):
        """The analyzer actually saw the tree: hundreds of functions,
        the mailserver acquire sites, the session-reachable slice."""
        report = _real_report()
        assert report.functions > 500
        assert report.acquire_sites >= 4
        assert report.signal_sites >= 6
        assert report.reachable >= 10

    def test_real_lock_graph_is_the_sorted_folder_loop(self):
        """src/repro holds the per-folder mail locks (plain and
        shard-namespaced) plus the single-held weblog locks, and every
        nested acquire follows the sorted-loop discipline."""
        graph = _real_report().lock_graph
        assert "folder:" in graph.nodes
        folder_edges = [
            e for e in graph.edges if e.src == "folder:" and e.dst == "folder:"
        ]
        assert folder_edges and all(e.ordered for e in folder_edges)
        # The sharded workloads register their f-string lock classes.
        assert "shard:" in graph.nodes
        assert "weblog:" in graph.nodes
        assert all(e.ordered for e in graph.edges), [
            (e.src, e.dst) for e in graph.edges if not e.ordered
        ]

    def test_lint_composes_conc(self, lint_text_run):
        """``repro.check lint`` runs the concurrency pass too, and the
        composed run stays clean."""
        rc, out = lint_text_run
        assert rc == 0
        assert "conc=0" in out


# ======================================================================
# Static/dynamic agreement (satellite c): one fixture, both checkers
# ======================================================================
class TestDeadlockFixtureBothWays:
    def _load_workload(self):
        path = os.path.join(CONC_TREE, "scripts", "deadlock_workload.py")
        spec = importlib.util.spec_from_file_location("deadlock_workload", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_static_and_runtime_agree(self):
        # Statically: the opposite-order acquires are a lock-cycle.
        [static] = [
            v
            for v in _by_rule(_fixture_report())["lock-cycle"]
            if v.path.endswith("deadlock_workload.py")
        ]
        assert "alpha" in static.message and "beta" in static.message

        # Dynamically: the same two scripts, scheduled for real, stall
        # and trip the scheduler's all-blocked invariant.
        mod = self._load_workload()
        fs = make_betrfs("BetrFS v0.6")
        fs.vfs.mkdir("/spool")
        fs.vfs.create(mod.SPOOL)
        sched = Scheduler(fs, policy="fifo", seed=7)
        sched.spawn("fwd", lambda ctx: mod.forward(ctx, fs.vfs))
        sched.spawn("bwd", lambda ctx: mod.backward(ctx, fs.vfs))
        with pytest.raises(SchedInvariantError, match="stalled"):
            sched.run()

        # And the runtime-observed orders are exactly the static cycle.
        assert sorted(sched.lock_order) == [
            ("alpha", "beta"),
            ("beta", "alpha"),
        ]
        graph = _fixture_report().lock_graph
        for held, acquired in sched.lock_order:
            assert graph.covers(held, acquired), (held, acquired)


# ======================================================================
# Runtime cross-check: static graph covers observed orders
# ======================================================================
class TestStaticGraphCoversRuntime:
    def test_mt_smoke_orders_covered(self):
        """Acceptance criterion: every (held, acquired) pair recorded
        by a fixed-seed 16-session mt run is an edge of the static
        graph."""
        summary = run_mt(SMOKE_SCALE, sessions=16, seed=11, policy="fifo")
        observed = summary["lock_order"]
        assert observed, "contended mail mix must exercise nested locks"
        graph = _real_report().lock_graph
        uncovered = [
            (held, acquired)
            for held, acquired in observed
            if not graph.covers(held, acquired)
        ]
        assert not uncovered, uncovered

    def test_summary_lock_order_is_sorted_pairs(self):
        summary = run_mt(SMOKE_SCALE, sessions=4, seed=7)
        observed = summary["lock_order"]
        assert observed == sorted(observed)
        assert all(len(pair) == 2 for pair in observed)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=31),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    def test_sorted_move_sequences_are_graph_edges(self, folders):
        """Satellite (d): any sorted mailserver move-path key sequence
        acquires in an order the static graph predicts."""
        graph = _real_report().lock_graph
        keys = sorted({_folder_key(f) for f in folders})
        held = []
        for key in keys:
            for prior in held:
                assert graph.covers(prior, key), (prior, key)
            held.append(key)


# ======================================================================
# CLI: conc subcommand, graph artifacts, baseline diffing
# ======================================================================
class TestConcCLI:
    def test_clean_run_exit_zero(self, capsys):
        assert lint.run_pass("conc", []) == 0
        out = capsys.readouterr().out
        assert "repro.check conc: clean" in out
        assert "acquire site(s)" in out

    def test_json_format_round_trips(self, capsys):
        assert lint.run_pass("conc", ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["new_violations"] == 0
        assert payload["lock_graph"]["nodes"]
        assert payload["functions"] > 500

    def test_graph_out_writes_json_and_dot(self, tmp_path, capsys):
        prefix = str(tmp_path / "lock-graph")
        assert lint.run_pass("conc", ["--graph-out", prefix]) == 0
        data = json.loads((tmp_path / "lock-graph.json").read_text())
        assert "folder:" in {node["class"] for node in data["nodes"]}
        dot = (tmp_path / "lock-graph.dot").read_text()
        assert dot.startswith("digraph") and "folder:" in dot

    def test_empty_baseline_passes_clean_tree(self, capsys):
        baseline = os.path.join(os.path.dirname(__file__), os.pardir,
                                "conc-baseline.json")
        assert lint.run_pass("conc", ["--baseline", baseline]) == 0

    def test_bad_baseline_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert lint.run_pass("conc", ["--baseline", str(bad)]) == 2

    def test_baseline_suffix_matching(self, tmp_path):
        """Baselined findings are keyed (rule, repo-relative path) so a
        committed baseline survives other checkout prefixes; line
        numbers deliberately don't participate."""
        report = _fixture_report()
        [leak] = [v for v in report.violations if v.rule == "lock-leak"]
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({
            "findings": [
                {"rule": "lock-leak",
                 "path": "fixtures/conc/tree/scripts/bad_lock_leak.py"},
            ],
        }))
        known = lint.load_baseline(str(baseline))
        assert lint._is_baselined(leak, known)
        others = [v for v in report.violations if v is not leak]
        assert not any(lint._is_baselined(v, known) for v in others)

    def test_committed_baseline_is_empty(self):
        """The repo ships with zero known findings; anything conc
        reports in CI is new by definition."""
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "conc-baseline.json")
        data = json.loads(open(path, encoding="utf-8").read())
        assert data["findings"] == []


# ======================================================================
# Satellites (a) and (b): sched lint posture + arch legend
# ======================================================================
class TestSatellites:
    def test_sched_has_no_bare_asserts(self):
        """Satellite (a): ``src/repro/sched`` uses ``require`` (guarded
        invariants) everywhere — zero bare ``assert`` statements."""
        sched_dir = os.path.join(lint.repo_root(), "sched")
        found = [
            v
            for v in lint.lint_paths([sched_dir], use_allowlist=False)
            if v.rule == "bare-assert"
        ]
        assert found == [], [v.render() for v in found]

    def test_arch_dot_legend_lists_sched(self):
        """Satellite (b): the arch dot legend documents the full layer
        stack, sched included, even when no module landed in a layer."""
        report = arch.analyze(load(CONC_TREE, "concpkg"), manifest=FIX_MANIFEST)
        dot = report.to_dot()
        assert "cluster_legend" in dot
        legend_line = [ln for ln in dot.splitlines() if "legend" in ln and "label=" in ln]
        assert any("sched" in ln for ln in legend_line), dot
