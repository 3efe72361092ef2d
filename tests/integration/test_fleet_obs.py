"""Fleet observability acceptance gate.

Three contracts, mirroring ``tests/integration/test_obs_differential.py``
one layer up:

1. **Invisible when off/on** — arming the event log and the metrics
   exporter must leave campaign results bit-identical (nothing reads the
   sinks back into the computation).
2. **Faithful when on** — an enabled event log replays to exactly the cell
   set the campaign journal records as completed.
3. **Exact under --jobs N** — per-cell registry snapshots shipped back by
   forked workers merge into the same deterministic counters a ``jobs=1``
   run accumulates, and per-worker metrics snapshot files merge without
   double-counting fork-inherited history.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro.obs as obs
from repro.experiments import fig12_accuracy
from repro.obs.events import (
    completed_cell_keys,
    disable_event_log,
    enable_event_log,
    read_events,
)
from repro.obs.export import (
    read_metrics_snapshots,
    start_metrics_exporter,
    stop_metrics_exporter,
)
from repro.obs.registry import (
    MetricsRegistry,
    merge_registry_snapshots,
    register_process_registry,
)
from repro.runner import CampaignCell, CampaignSpec, run_campaign, session_stats
from repro.sim.config import RunSpec, SystemSpec
from repro.service.journal import as_journal
from repro.store import STORE_METRICS


REPO_ROOT = Path(__file__).resolve().parents[2]

#: An enrolled process registry the counting cell ticks in pool workers.
_COUNTING = register_process_registry(MetricsRegistry("test-counting"))


def counting_cell(params):
    _COUNTING.counter("test.cells_counted").inc()
    return params["i"]


def small_campaign(seed=3, sizes=(10, 20)):
    return fig12_accuracy.sweep_campaign(
        policies=("norandom", "timedice"),
        profile_sizes=sizes,
        message_windows=20,
        seed=seed,
    )


class TestDifferential:
    def test_event_log_and_exporter_leave_results_bit_identical(self, tmp_path):
        baseline = run_campaign(small_campaign(), jobs=1).results

        enable_event_log(tmp_path / "events.jsonl")
        start_metrics_exporter(tmp_path / "metrics")
        try:
            instrumented = run_campaign(small_campaign(), jobs=1).results
        finally:
            stop_metrics_exporter()
            disable_event_log()
        assert instrumented == baseline

        # ...and a run after disarming is still identical (no residue).
        assert run_campaign(small_campaign(), jobs=1).results == baseline

    def test_off_by_default_emits_nothing(self, tmp_path):
        run_campaign(small_campaign(), jobs=1)
        assert list(tmp_path.iterdir()) == []


class TestEventLogFaithfulness:
    def test_events_replay_to_journal_completed_cell_set(self, tmp_path):
        spec = small_campaign()
        events_path = tmp_path / "events.jsonl"
        enable_event_log(events_path)
        try:
            run_campaign(spec, jobs=2, journal=str(tmp_path / "journal"))
        finally:
            disable_event_log()
        state = as_journal(str(tmp_path / "journal"), spec).replay()
        assert len(state.completed) == len(spec)
        assert completed_cell_keys(events_path) == set(state.completed.values())

    def test_campaign_lifecycle_events(self, tmp_path):
        spec = small_campaign()
        events_path = tmp_path / "events.jsonl"
        enable_event_log(events_path)
        try:
            run_campaign(spec, jobs=2)
        finally:
            disable_event_log()
        records = read_events(events_path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "campaign.begin"
        assert kinds[-1] == "campaign.end"
        begin, end = records[0], records[-1]
        assert begin["total"] == len(spec)
        assert begin["jobs"] == 2
        assert end["done"] == len(spec)
        # every record carries the campaign correlation id and orders
        # totally per process via (pid, seq)
        per_pid = {}
        for record in records:
            assert record["campaign"] == spec.name
            assert record["seq"] == per_pid.get(record["pid"], 0) + 1
            per_pid[record["pid"]] = record["seq"]
        starts = {r["cell"] for r in records if r["kind"] == "cell.start"}
        completes = {r["cell"] for r in records if r["kind"] == "cell.complete"}
        assert starts == completes == {cell.key for cell in spec}

    def test_grouped_members_log_start(self, tmp_path):
        """Cells run as one batch-engine group still log one cell.start each."""
        cells = [
            CampaignCell(
                f"s{seed}",
                "repro.runner.tasks:simulate_cell",
                {"runspec": RunSpec(system=SystemSpec.named("three_partition"),
                                    policy="timedice", seed=seed,
                                    horizon=50_000).to_dict()},
            )
            for seed in range(5)
        ]
        events_path = tmp_path / "events.jsonl"
        enable_event_log(events_path)
        try:
            run_campaign(CampaignSpec(name="grouped", cells=cells), jobs=1)
        finally:
            disable_event_log()
        records = read_events(events_path)
        assert [r["size"] for r in records if r["kind"] == "batch.group"] == [5]
        starts = sorted(r["cell"] for r in records if r["kind"] == "cell.start")
        completes = sorted(r["cell"] for r in records if r["kind"] == "cell.complete")
        assert starts == completes == sorted(cell.key for cell in cells)


class TestExactRollups:
    def test_obs_rollup_is_exact_under_jobs(self):
        obs.enable()
        run_campaign(small_campaign(), jobs=1)
        run_campaign(small_campaign(), jobs=2)
        serial, parallel = session_stats()[-2:]
        r1, r2 = serial.obs_rollup(), parallel.obs_rollup()
        assert r1 and r2
        ints1 = {k: v for k, v in r1.items() if isinstance(v, int)}
        ints2 = {k: v for k, v in r2.items() if isinstance(v, int)}
        assert ints1 == ints2 and ints1
        d1, d2 = serial.decide_rollup(), parallel.decide_rollup()
        assert d1["cells"] == d2["cells"] == 4
        assert d1["count"] == d2["count"] > 0
        # histogram observation totals merge exactly too (wall-times differ,
        # their counts cannot)
        for name, value in r1.items():
            if isinstance(value, dict):
                assert r2[name]["count"] == value["count"], name

    def test_worker_snapshot_files_merge_without_double_counting(self, tmp_path):
        obs.enable()
        start_metrics_exporter(tmp_path, interval=0.0)
        try:
            run_campaign(small_campaign(), jobs=2, cache=str(tmp_path / "cache"))
        finally:
            parent_store = STORE_METRICS.snapshot()
            stop_metrics_exporter()
        telemetry = session_stats()[-1]
        payloads = read_metrics_snapshots(tmp_path)
        pids = {payload["pid"] for payload in payloads}
        assert os.getpid() in pids
        worker_pids = {
            int(name.split("-", 1)[1]) for name in telemetry.workers
        }
        assert worker_pids and worker_pids <= pids

        merged = merge_registry_snapshots([p["metrics"] for p in payloads])
        # The store is driven only by the campaign parent; forked workers
        # reset their inherited registry counts, so the fleet-wide merge
        # must equal the parent's own exact counters — any surplus would
        # mean pre-fork history was exported twice.
        assert merged["store.put_ns"]["count"] == parent_store["store.put_ns"]["count"]
        assert merged["store.get_ns"]["count"] == parent_store["store.get_ns"]["count"]
        assert merged["store.put_ns"]["count"] == len(small_campaign())

    def test_worker_snapshot_files_hold_every_computed_cell(self, tmp_path):
        # With a throttle far longer than the campaign, each worker writes on
        # its first tick and then only at its exit: the exit flush must run
        # in pool workers, which leave through os._exit.
        obs.enable()
        spec = CampaignSpec.from_grid(
            "counting",
            task="tests.integration.test_fleet_obs:counting_cell",
            axes={"i": list(range(20))},
        )
        start_metrics_exporter(tmp_path, interval=3600.0)
        try:
            result = run_campaign(spec, jobs=2)
        finally:
            stop_metrics_exporter()
        assert result.telemetry.computed == 20
        worker_pids = {int(name.split("-", 1)[1]) for name in result.telemetry.workers}
        assert worker_pids and os.getpid() not in worker_pids
        counted = sum(
            payload["metrics"].get("test.cells_counted", 0)
            for payload in read_metrics_snapshots(tmp_path)
            if payload["pid"] in worker_pids
        )
        assert counted == 20


class TestTopAgainstRunningDrain:
    """CI-style smoke: the live console must render cleanly while a real
    ``repro service drain`` subprocess is mid-queue, and again after it
    finishes — both from nothing but the on-disk artifacts."""

    def _cli(self, *argv):
        env = os.environ.copy()
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        return [sys.executable, "-m", "repro", *argv], env

    def test_top_renders_against_running_drain(self, tmp_path):
        root = str(tmp_path / "service")
        sinks = [
            "--service-root", root,
            "--events-out", str(tmp_path / "events.jsonl"),
            "--metrics-dir", str(tmp_path / "metrics"),
        ]
        argv, env = self._cli(
            "service", "submit", "fig12", "--quick", "--no-cache",
            "--service-root", root,
        )
        submitted = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=120
        )
        assert submitted.returncode == 0, submitted.stderr

        argv, env = self._cli("service", "drain", "--jobs", "2", *sinks)
        drain = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        live_frames = []
        try:
            while drain.poll() is None:
                argv, env = self._cli("top", "--once", *sinks)
                frame = subprocess.run(
                    argv, env=env, capture_output=True, text=True, timeout=60
                )
                assert frame.returncode == 0, frame.stderr
                if drain.poll() is None:
                    live_frames.append(frame.stdout)
        finally:
            assert drain.wait(timeout=300) == 0
        assert live_frames, "drain finished before a single live frame rendered"
        for frame in live_frames:
            assert "repro top — fleet console" in frame
            assert root in frame

        argv, env = self._cli("top", "--once", *sinks)
        final = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=60
        )
        assert final.returncode == 0, final.stderr
        assert "1 done" in final.stdout
        assert "events:" in final.stdout
