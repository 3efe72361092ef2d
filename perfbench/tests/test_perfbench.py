"""Tests of the benchmark's own logic: self time, the tail rule, the
correctness gate, and clean removal of the tracing wrappers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import signal
import time

import pytest

import common
import tracer as tr
import workloads
from repro.experiments import fig12_accuracy


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _tracer():
    clock = FakeClock()
    return tr.Tracer(clock=clock), clock


def test_self_time_of_nested_spans():
    t, clock = _tracer()
    t.enter("decide")  # 0
    clock.now += 2
    t.enter("search")  # 2
    clock.now += 3
    t.enter("busy")  # 5
    clock.now += 4
    t.exit()  # busy: 4
    clock.now += 1
    t.exit()  # search: 8 incl, 4 self
    clock.now += 5
    t.exit()  # decide: 15 incl, 7 self
    assert t.stats["busy"].self_ns == 4
    assert t.stats["search"].self_ns == 4
    assert t.stats["decide"].self_ns == 7
    assert t.stats["decide"].incl_ns == 15
    assert sum(s.self_ns for s in t.stats.values()) == 15
    assert [span[3] for span in t.spans] == [-1, 0, 1]


def test_reentrant_span_adds_self_time_but_not_calls():
    t, clock = _tracer()
    t.enter("policy.decide")  # outer (TimeDicePolicy.decide)
    clock.now += 1
    t.enter("policy.decide")  # inner (TimeDice.decide)
    clock.now += 2
    t.enter("selector")
    clock.now += 3
    t.exit()
    clock.now += 4
    t.exit()
    clock.now += 5
    t.exit()
    decide = t.stats["policy.decide"]
    assert decide.calls == 1
    assert decide.incl_ns == 15
    assert decide.self_ns == 15 - 3
    assert t.stats["selector"].self_ns == 3


def test_recursive_wrapper_counts_one_call():
    t = tr.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = t.wrap("fact", fact)
    assert wrapped(5) == 120
    assert t.calls("fact") == 1
    assert t.stats["fact"].self_ns == t.stats["fact"].incl_ns


def test_spans_beyond_keep_are_counted_not_kept(monkeypatch):
    monkeypatch.setattr(tr, "KEEP", 2)
    t, clock = _tracer()
    for _ in range(5):
        t.enter("x")
        clock.now += 1
        t.exit()
    assert t.calls("x") == 5 and t.stats["x"].self_ns == 5
    assert len(t.spans) == 2 and t.dropped == 3
    events = t.chrome_trace(pid=1)["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 99.0),  # 10 beyond the 990th value
        (999, 98.0),  # 99th would leave only 9 beyond
        (20, 50.0),
        (110, 90.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))
    q, value = common.tail_percentile(samples)
    assert q == expected
    assert sum(1 for s in samples if s > value) >= common.TAIL_MIN_BEYOND


def test_tail_percentile_needs_enough_samples():
    assert common.tail_percentile(list(range(19))) is None


def test_check_cells_against_reference_and_consistency():
    cells = {"a": "1", "b": "2"}
    per_cell = {"cells": {"a": "1", "b": "9"}}
    assert common.check_cells(cells, per_cell, None) == ["b"]
    digest_only = {"digest": common.outcome_digest(cells)}
    assert common.check_cells(cells, digest_only, None) == []
    assert common.check_cells({"a": "1", "b": "3"}, digest_only, None) == ["a", "b"]
    assert common.check_cells(cells, None, {"a": "1", "b": "2", "c": "3"}) == ["c"]
    assert common.check_cells(cells, None, None) == []


def test_host_speed_probes_while_sampling_and_restores_the_timer():
    assert common.probe(100) == common.probe(100) != common.probe(101)
    speed = common.HostSpeed()
    assert speed.factor() == 1.0
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        end = time.perf_counter() + 10 * common.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert speed.probes >= 3 and speed.busy_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Probes twice as slow as the reference halve every reported time.
    speed.busy_s = 2 * common.PROBE_REF_S * speed.probes
    assert speed.factor() == pytest.approx(0.5)


def test_salted_environment_is_refused():
    assert common.default_program_problems({"REPRO_CACHE_SALT": "x"})
    assert not common.default_program_problems({})


def test_declared_workloads_match():
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_fig12_workload_is_the_quick_figure():
    """The workload's campaign is the one ``repro fig12 --quick`` runs."""
    spec = workloads.WORKLOADS["fig12-timedice"].build(3)
    cli = fig12_accuracy.sweep_campaign(profile_sizes=(10, 20, 50), message_windows=100, seed=3)
    assert spec.spec_hash() == cli.spec_hash()


# -- small campaigns that take every layer's path ------------------------

MINI_FIGURE = workloads.Workload(
    "mini-figure",
    lambda seed: fig12_accuracy.sweep_campaign(
        policies=("norandom", "timedice"),
        profile_sizes=(4,),
        message_windows=6,
        seed=seed,
    ),
    jobs=1,
    store_backed=False,
)


def _mini_grid(seed):
    spec = workloads.WORKLOADS["grid-store"].build(seed)
    return type(spec)(name="mini-grid", cells=spec.cells[:40])


MINI_GRID = workloads.Workload("mini-grid", _mini_grid, jobs=1, store_backed=True)


@pytest.mark.parametrize("workload", [MINI_FIGURE, MINI_GRID], ids=lambda w: w.name)
def test_two_runs_of_one_seed_give_one_digest(workload, tmp_path):
    with workloads.backing(workload, tmp_path / "a") as backed:
        first = workloads.run_protocol(workload, workload.build(5), backed)
    with workloads.backing(workload, tmp_path / "b") as backed:
        # Host-speed probes interrupt the second run and change nothing.
        second = workloads.run_protocol(workload, workload.build(5), backed, sample=True)
    assert not first.cold.failed and not first.warm_mismatches()
    assert common.outcome_digest(first.cell_hashes()) == common.outcome_digest(
        second.cell_hashes()
    )


@pytest.mark.parametrize("workload", [MINI_FIGURE, MINI_GRID], ids=lambda w: w.name)
def test_wrappers_are_removed_after_a_traced_run(workload, tmp_path):
    import repro.core.memo as memo
    import repro.core.timedice as timedice
    from repro.sim.engine import Simulator

    spec = workload.build(2)
    with workloads.backing(workload, tmp_path / "before") as backed:
        before = workloads.run_protocol(workload, spec, backed)
    originals = (timedice.candidate_search, Simulator.snapshot, memo.SchedulabilityMemo.__init__.__defaults__)

    tracer = tr.Tracer()
    with workloads.backing(workload, tmp_path / "traced") as backed:
        patcher = tr.install(tracer)
        try:
            assert tr.wrappers_left()
            traced = workloads.run_protocol(
                workload,
                spec,
                backed,
                wrap=lambda call: tracer.span("runner.campaign", call),
            )
        finally:
            patcher.restore()
    with workloads.backing(workload, tmp_path / "after") as backed:
        after = workloads.run_protocol(workload, spec, backed)

    assert tr.wrappers_left() == []
    assert (timedice.candidate_search, Simulator.snapshot, memo.SchedulabilityMemo.__init__.__defaults__) == originals
    digests = {
        common.outcome_digest(p.cell_hashes()) for p in (before, traced, after)
    }
    assert len(digests) == 1
    assert tracer.calls("runner.campaign") == len(traced.passes())
    if workload is MINI_FIGURE:
        assert tracer.calls("candidacy.search") > 0
        assert tracer.calls("busy_interval") > 0
        assert tracer.counts["engine.decisions"] == tracer.calls("policy.decide")
    else:
        assert tracer.counts["batch.runs"] == len(spec)
        assert tracer.calls("journal.append") > 0
        assert tracer.calls("eventlog.emit") > 0


def test_steadiness_flags_follow_the_acceptance_rule():
    import steady

    def sets(*spreads):
        return [{"spread": s} for s in spreads]

    assert steady.flags("wall_s", sets(0.05, 0.06), 0.1, 0.25, "lower") == []
    assert steady.flags("wall_s", sets(0.05, 0.3), 0.0, 0.25, "lower") == ["OVER", "WIDE"]
    # setup_s spreads are exempt; its medians are not.
    assert steady.flags("setup_s", sets(0.3, 0.3), 0.3, 0.25, "lower") == ["WORSE", "APART"]
    # A faster second set is not worse, but the sets still disagree.
    assert steady.flags("wall_s", sets(0.05, 0.05), -0.3, 0.25, "lower") == ["APART"]
    assert steady.flags("sim_s_per_host_s", sets(0.05, 0.05), -0.3, 0.25, "higher") == [
        "WORSE",
        "APART",
    ]
