"""``--trace-out`` across engines and worker pools.

Pins the interaction of trace capture with the two execution surfaces that
cannot honour it transparently:

- the **batch engine** records no per-run segments, so while a capture is
  active (with or without the obs gate) campaign grouping stays off and
  every cell runs on the scalar engine, which self-registers and traces;
  with the gate on, the reasoned ``pool.batch_fallback.obs_enabled``
  counter says why;
- **forked pool workers** inherit the capture object but their
  registrations can never reach the parent's trace file, so the pool drops
  them and ships the gated ``trace.worker_runs_dropped`` count back in the
  cell's obs snapshot instead of silently losing spans.
"""

from __future__ import annotations

import json
from unittest import mock

import repro.obs as obs
import repro.runner.tasks as runner_tasks
from repro.experiments import fig12_accuracy
from repro.runner import CampaignCell, CampaignSpec, run_campaign, session_stats
from repro.runner.pool import POOL_METRICS
from repro.sim.config import RunSpec, SystemSpec


def sim_campaign():
    """Three batch-compatible cells plus one EDF cell grouping never takes."""
    specs = [
        RunSpec(system=SystemSpec.named("three_partition"), policy="timedice",
                seed=seed, horizon=50_000, scheduler=scheduler)
        for seed, scheduler in ((1, "fp"), (2, "fp"), (3, "fp"), (4, "edf"))
    ]
    return CampaignSpec(name="trace-cells", cells=[
        CampaignCell(f"s{spec.seed}", "repro.runner.tasks:simulate_cell",
                     {"runspec": spec.to_dict()})
        for spec in specs
    ])


def small_campaign(seed=3):
    return fig12_accuracy.sweep_campaign(
        policies=("norandom", "timedice"),
        profile_sizes=(10,),
        message_windows=20,
        seed=seed,
    )


class TestTraceUnderBatchEngine:
    def test_capture_forces_scalar_fallback_with_reason(self):
        obs.enable()
        obs.start_trace_capture()
        try:
            with mock.patch.object(runner_tasks, "simulate_batch",
                                   wraps=runner_tasks.simulate_batch) as spy:
                run_campaign(sim_campaign(), jobs=1)
        finally:
            captured = obs.stop_trace_capture()
        assert not spy.called
        assert POOL_METRICS.snapshot()["pool.batch_fallback.obs_enabled"] == 1
        # every cell ran on the scalar engine, which self-registered, so the
        # trace holds one non-empty run per cell
        assert len(captured) == len(sim_campaign())
        assert all(len(run.segments) > 0 for run in captured)

    def test_capture_without_obs_gate_still_traces_every_cell(self):
        """A capture alone (gate off) also keeps cells off the batch engine,
        which registers no runs with it."""
        cells = sim_campaign().cells[:3]  # the batch-compatible fp cells
        obs.start_trace_capture()
        try:
            run_campaign(CampaignSpec(name="capture-only", cells=cells), jobs=1)
        finally:
            captured = obs.stop_trace_capture()
        assert len(captured) == len(cells)
        assert all(len(run.segments) > 0 for run in captured)

    def test_no_capture_still_dispatches_batch(self):
        with mock.patch.object(runner_tasks, "simulate_batch",
                               wraps=runner_tasks.simulate_batch) as spy:
            run_campaign(sim_campaign(), jobs=1)
        # the three fp cells form one group; the EDF cell runs alone
        assert spy.call_count == 1
        assert len(spy.call_args.args[0]["runspecs"]) == 3


class TestTraceUnderJobs:
    def test_worker_runs_dropped_are_counted(self):
        obs.enable()
        obs.start_trace_capture()
        try:
            run_campaign(small_campaign(), jobs=2)
        finally:
            captured = obs.stop_trace_capture()
        telemetry = session_stats()[-1]
        rollup = telemetry.obs_rollup()
        assert rollup is not None
        # every cell simulated in a forked worker; all its registrations
        # were dropped and accounted, none leaked into the parent capture
        assert rollup.get("trace.worker_runs_dropped", 0) >= len(small_campaign())
        assert captured == []

    def test_cli_trace_out_with_jobs_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        argv = [
            "campaign", "fig12", "--quick", "--jobs", "2", "--no-cache",
            "--trace-out", str(trace),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[trace:" in out
        document = json.loads(trace.read_text())
        assert "traceEvents" in document
        assert not obs.is_enabled()  # the CLI restored the gate
