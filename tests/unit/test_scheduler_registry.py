"""Unit tests for the scheduler registries, EDF/REORDER local schedulers,
and the enriched TDMA unschedulability diagnostics."""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest

import repro.runner.tasks as runner_tasks
import repro.sim.registry as registry
from repro._time import ms
from repro.model.partition import Partition
from repro.model.system import System
from repro.model.task import Task
from repro.runner import CampaignCell, CampaignSpec, derive_seed, run_campaign
from repro.sim.batch import batch_compatible
from repro.sim.config import RunSpec, SystemSpec
from repro.sim.engine import Simulator
from repro.sim.local import (
    EDFLocalScheduler,
    Job,
    REORDERLocalScheduler,
    REORDERPolicy,
    absolute_deadline,
)
from repro.sim.policies import (
    FixedPriorityPolicy,
    TDMAPolicy,
    TDMAUnschedulableError,
    make_policy,
)


@pytest.fixture
def scratch_registries():
    """Snapshot/restore both registry dicts so tests can register freely."""
    local = dict(registry._LOCAL_SCHEDULERS)
    global_ = dict(registry._GLOBAL_POLICIES)
    yield
    registry._LOCAL_SCHEDULERS.clear()
    registry._LOCAL_SCHEDULERS.update(local)
    registry._GLOBAL_POLICIES.clear()
    registry._GLOBAL_POLICIES.update(global_)


def _task(name="tau", period=20_000, wcet=2_000, prio=1, deadline=None, offset=0):
    return Task(
        name=name,
        period=period,
        wcet=wcet,
        local_priority=prio,
        deadline=deadline,
        offset=offset,
    )


def _job(wcet=2_000, arrival=0, deadline=None, period=20_000, name="tau", prio=1):
    task = _task(name=name, period=period, wcet=wcet, prio=prio, deadline=deadline)
    return Job(task=task, partition="Pi", arrival=arrival, demand=wcet)


class TestRegistrySemantics:
    def test_builtins_registered_on_import(self):
        import repro.baselines.blinder  # noqa: F401

        names = registry.local_scheduler_names()
        assert {"fp", "edf", "reorder", "blinder"} <= set(names)
        assert {"norandom", "timedice", "timedice-uniform", "timedice-inverse",
                "tdma"} <= set(registry.global_policy_names())

    def test_reregister_same_factory_is_noop(self, scratch_registries):
        def factory(partition, seed):
            return EDFLocalScheduler()

        registry.register_local_scheduler("x-test", factory)
        registry.register_local_scheduler("x-test", factory)  # no raise
        assert registry.find_local_scheduler("x-test").factory is factory

    def test_reregister_different_factory_raises(self, scratch_registries):
        registry.register_local_scheduler("x-test", lambda p, s: EDFLocalScheduler())
        with pytest.raises(ValueError, match="already registered"):
            registry.register_local_scheduler(
                "x-test", lambda p, s: EDFLocalScheduler()
            )
        registry.register_global_policy("y-test", lambda **kw: FixedPriorityPolicy())
        with pytest.raises(ValueError, match="already registered"):
            registry.register_global_policy(
                "y-test", lambda **kw: FixedPriorityPolicy()
            )

    def test_unknown_names_raise_with_inventory(self):
        with pytest.raises(ValueError, match="unknown local scheduler 'nope'"):
            registry.get_local_scheduler("nope")
        with pytest.raises(ValueError, match="unknown policy 'nope'"):
            registry.get_global_policy("nope")

    def test_make_policy_resolves_through_registry(self, scratch_registries):
        class Custom(FixedPriorityPolicy):
            name = "custom-policy"

        registry.register_global_policy("custom", lambda **kw: Custom())
        assert make_policy("custom").name == "custom-policy"

    def test_seeded_factory_streams_are_per_partition(self):
        part_a = Partition(name="A", period=ms(20), budget=ms(5), priority=1)
        part_b = Partition(name="B", period=ms(20), budget=ms(5), priority=2)
        factory = registry.make_local_scheduler_factory("reorder", seed=42)
        sched_a, sched_b = factory(part_a), factory(part_b)
        assert isinstance(sched_a, REORDERLocalScheduler)
        expected_a = derive_seed(42, "sched/reorder/A")
        assert sched_a._rng.getstate() != sched_b._rng.getstate()
        import random

        assert sched_a._rng.getstate() == random.Random(expected_a).getstate()

    def test_unseeded_factory_gets_no_seed(self):
        seen = []

        def factory(partition, seed):
            seen.append(seed)
            return EDFLocalScheduler()

        entry = registry.LocalSchedulerEntry(name="t", factory=factory)
        registry._LOCAL_SCHEDULERS["t-unseeded"] = entry
        try:
            registry.make_local_scheduler_factory("t-unseeded", seed=99)(
                Partition(name="A", period=ms(20), budget=ms(5), priority=1)
            )
        finally:
            del registry._LOCAL_SCHEDULERS["t-unseeded"]
        assert seen == [None]


class TestThirdPartySchedulerEndToEnd:
    def test_registered_scheduler_is_speccable(self, scratch_registries):
        calls = []

        def factory(partition, seed):
            calls.append(partition.name)
            return EDFLocalScheduler()

        registry.register_local_scheduler("my-edf", factory)
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy="norandom",
            seed=1,
            horizon=40_000,
            scheduler="my-edf",
        )
        Simulator.from_spec(spec).run_until(spec.horizon)
        assert sorted(calls) == ["Pi_1", "Pi_2", "Pi_3"]

    def test_third_party_policy_falls_back_from_batch(self, scratch_registries):
        registry.register_global_policy("my-fp", lambda **kw: FixedPriorityPolicy())
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy="my-fp",
            seed=1,
            horizon=40_000,
        )
        assert batch_compatible(spec) == "policy"
        cells = [
            CampaignCell(f"s{seed}", "repro.runner.tasks:simulate_cell",
                         {"runspec": spec.replace(seed=seed).to_dict()})
            for seed in (1, 2)
        ]
        with mock.patch.object(runner_tasks, "simulate_batch",
                               wraps=runner_tasks.simulate_batch) as spy:
            result = run_campaign(CampaignSpec(name="my-fp", cells=cells), jobs=1)
        assert not spy.called
        assert all(outcome.ok for outcome in result.outcomes.values())

    def test_factory_and_scheduler_field_conflict(self):
        system = SystemSpec.named("three_partition").build()
        with pytest.raises(ValueError, match="not both"):
            Simulator(
                system,
                policy="norandom",
                scheduler="edf",
                local_scheduler_factory=lambda p: EDFLocalScheduler(),
            )


class TestEDFLocalScheduler:
    def test_picks_earliest_absolute_deadline(self):
        sched = EDFLocalScheduler()
        late = _job(name="late", arrival=0, deadline=30_000)
        soon = _job(name="soon", arrival=5_000, deadline=10_000)  # abs 15_000
        sched.on_arrival(late, 0)
        sched.on_arrival(soon, 5_000)
        assert sched.pick(5_000) is soon
        sched.on_complete(soon, 7_000)
        assert sched.pick(7_000) is late
        assert sched.pending_count() == 1

    def test_tiebreak_is_arrival_then_job_id(self):
        sched = EDFLocalScheduler()
        first = _job(name="a", arrival=0, deadline=20_000)
        second = _job(name="b", arrival=0, deadline=20_000)
        assert first.job_id < second.job_id
        sched.on_arrival(second, 0)
        sched.on_arrival(first, 0)
        assert sched.pick(0) is first

    def test_empty_queue(self):
        sched = EDFLocalScheduler()
        assert sched.pick(0) is None
        assert not sched.has_ready(0)


class TestREORDERLocalScheduler:
    def test_alias(self):
        assert REORDERPolicy is REORDERLocalScheduler

    def test_eligibility_respects_other_deadlines(self):
        # urgent: abs deadline 6_000, 4_000 remaining; slack 2_000.
        # bulky: 3_000 remaining > urgent's slack => bulky not eligible.
        sched = REORDERLocalScheduler(seed=1)
        urgent = _job(name="u", wcet=4_000, arrival=0, deadline=6_000)
        bulky = _job(name="b", wcet=3_000, arrival=0, deadline=30_000)
        sched.on_arrival(urgent, 0)
        sched.on_arrival(bulky, 0)
        assert sched.eligible(0) == [urgent]
        assert sched.pick(0) is urgent

    def test_randomizes_within_slack(self):
        # Both jobs fit in either order => both eligible; across seeds the
        # pick differs, within a seed it is deterministic.
        picks = set()
        for seed in range(8):
            sched = REORDERLocalScheduler(seed=seed)
            a = _job(name="a", wcet=1_000, arrival=0, deadline=10_000)
            b = _job(name="b", wcet=1_000, arrival=0, deadline=10_500)
            sched.on_arrival(a, 0)
            sched.on_arrival(b, 0)
            assert sched.eligible(0) == [a, b]
            picks.add(sched.pick(0).task.name)
            assert sched.pick(0) is sched.pick(0)  # cached between peeks
        assert picks == {"a", "b"}

    def test_draws_once_per_queue_change(self):
        sched = REORDERLocalScheduler(seed=3)
        a = _job(name="a", wcet=1_000, arrival=0, deadline=10_000)
        b = _job(name="b", wcet=1_000, arrival=0, deadline=10_500)
        sched.on_arrival(a, 0)
        sched.on_arrival(b, 0)
        first = sched.pick(0)
        state = sched._rng.getstate()
        for t in (100, 200, 300):
            assert sched.pick(t) is first
        assert sched._rng.getstate() == state  # peeks consumed no randomness

    def test_infeasible_queue_degrades_to_edf_head(self):
        sched = REORDERLocalScheduler(seed=0)
        doomed = _job(name="d", wcet=5_000, arrival=0, deadline=1_000)
        sched.on_arrival(doomed, 0)
        assert sched.eligible(2_000) == []
        assert sched.pick(2_000) is doomed


class TestTDMADiagnostics:
    def test_single_partition_table(self):
        policy = TDMAPolicy(
            System([Partition(name="solo", period=ms(10), budget=ms(4), priority=1)])
        )
        assert len(policy.slots) == 1
        assert (policy.slots[0].start, policy.slots[0].end) == (0, ms(4))

    def test_full_budget_partition_table(self):
        # budget == period is the degenerate always-running server; alone it
        # fills the hyperperiod exactly.
        policy = TDMAPolicy(
            System([Partition(name="hog", period=ms(10), budget=ms(10), priority=1)])
        )
        assert sum(s.end - s.start for s in policy.slots) == policy.hyperperiod

    def test_zero_budget_partition_rejected_at_model_layer(self):
        with pytest.raises(ValueError, match=r"budget must be in \(0, period\]"):
            Partition(name="empty", period=ms(10), budget=0, priority=1)

    def test_unschedulable_message_names_partition_and_utilization(self):
        overloaded = System(
            [
                Partition(name="a", period=ms(10), budget=ms(8), priority=1),
                Partition(name="b", period=ms(10), budget=ms(8), priority=2),
            ]
        )
        with pytest.raises(TDMAUnschedulableError) as excinfo:
            TDMAPolicy(overloaded)
        message = str(excinfo.value)
        assert "'b'" in message  # the partition that cannot be served
        assert "utilization 0.800" in message
        assert "set total 1.600" in message
        assert "table so far" in message
        assert "->a" in message  # slot summary names the placed partitions

    def test_unschedulable_message_shows_unserved_budget(self):
        # Mismatched periods where the low-priority partition's budget cannot
        # finish before its deadline.
        cramped = System(
            [
                Partition(name="fast", period=ms(5), budget=ms(4), priority=1),
                Partition(name="slow", period=ms(10), budget=ms(3), priority=2),
            ]
        )
        with pytest.raises(TDMAUnschedulableError) as excinfo:
            TDMAPolicy(cramped)
        assert "'slow'" in str(excinfo.value)


class TestSchedulerSpecValidation:
    def test_runspec_rejects_unregistered_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler 'rms'"):
            RunSpec(
                system=SystemSpec.named("three_partition"),
                policy="norandom",
                scheduler="rms",
            )

    def test_replace_keeps_validation(self):
        spec = RunSpec(system=SystemSpec.named("three_partition"), policy="norandom")
        with pytest.raises(ValueError, match="unknown scheduler"):
            dataclasses.replace(spec, scheduler="nope")

    def test_absolute_deadline_helper(self):
        job = _job(arrival=3_000, deadline=7_000)
        assert absolute_deadline(job) == 10_000
