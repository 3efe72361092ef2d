"""The discrete-event two-level scheduling simulator.

The engine advances time from scheduling point to scheduling point. At each
point it (i) delivers due events (budget replenishments, job arrivals),
(ii) consults the global policy with a fresh :class:`SystemState` snapshot,
and (iii) lets the chosen partition's highest-priority ready job run for the
longest slice compatible with the next event, the policy's slice bound (the
TimeDice quantum or the TDMA slot end), the partition's remaining budget, and
the job's remaining demand. Budget depletes only while a task of the
partition executes (Sec. II-a), and is replenished to :math:`B_i` at every
multiple of :math:`T_i`.

Determinism: one seeded :class:`random.Random` drives workload jitter and a
second, independent one drives the policy's dice, so the same seed replays
the same run bit-for-bit.
"""

from __future__ import annotations

import random
import time as _wall
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import repro.faults as _faults
import repro.obs as _obs
import repro.obs.events as _events
from repro._time import MS, SEC
from repro.core.state import PartitionState, SystemState
from repro.core.timedice import DEFAULT_QUANTUM
from repro.model.system import System
from repro.obs.gate import GATE
from repro.sim.behaviors import Behavior, ChannelScript, default_behaviors
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.local import Job, LocalScheduler
from repro.sim.policies import GlobalPolicyBase, PolicyChoice, make_policy
from repro.sim.registry import (
    DEFAULT_LOCAL_SCHEDULER,
    find_local_scheduler,
    make_local_scheduler_factory,
)
from repro.sim.trace import JobRecord, Observer, SegmentRecorder


class _PartitionRuntime:
    """Mutable per-partition state owned by the engine."""

    __slots__ = ("spec", "remaining_budget", "last_replenishment", "local")

    def __init__(self, spec, local: LocalScheduler):
        self.spec = spec
        self.remaining_budget = spec.budget
        self.last_replenishment = 0
        self.local = local


@dataclass(frozen=True)
class HookSet:
    """The hook chain one ``run_until`` call runs with, precomputed.

    The loop used to interrogate process-global state (``GATE.enabled``) and
    ``is None``-guard every optional collaborator at every scheduling point.
    A :class:`HookSet` snapshots those answers once per ``run_until`` call —
    the gate may legitimately toggle *between* calls, never mid-call — so
    the hot loop branches on plain booleans and the all-disabled
    configuration runs a measurable fast path (no wall-clock reads, no gated
    counter calls, no observer iteration).

    Attributes:
        obs_on: ``repro.obs`` gate state; enables gated counters, the
            decide-latency histogram, and span recording.
        measure: The simulator's ``measure_overhead`` flag (exact per-decide
            wall-clock series on the result).
        timed: ``obs_on or measure`` — whether decide calls are clocked.
        faults: The active :class:`~repro.faults.FaultInjector`, or None.
        observers: Snapshot of the observer list as a tuple.
    """

    obs_on: bool
    measure: bool
    timed: bool
    faults: Optional["_faults.FaultInjector"]
    observers: tuple

    @classmethod
    def for_run(cls, sim: "Simulator") -> "HookSet":
        obs_on = GATE.enabled
        measure = sim.measure_overhead
        return cls(
            obs_on=obs_on,
            measure=measure,
            timed=obs_on or measure,
            faults=sim._faults,
            observers=tuple(sim.observers),
        )

    @property
    def all_disabled(self) -> bool:
        """True when the loop can take the bare fast path."""
        return not (self.obs_on or self.measure or self.faults or self.observers)


@dataclass
class SimulationResult:
    """Aggregate outcome of one run.

    Attributes:
        end_time: Simulated time reached (µs).
        decisions: Number of global scheduling decisions made.
        switches: Number of times the running partition changed (idle counts
            as a distinct context).
        overhead_ns_total: Wall-clock nanoseconds spent inside
            ``policy.decide`` (only populated with ``measure_overhead=True``).
        overhead_ns_by_second: Wall-clock decide-time per simulated second
            (the Fig. 17 series).
        decide_latencies_ns: Individual decide-call latencies (Table IV),
            collected only with ``measure_overhead=True``.
        deadline_misses: Count of jobs finishing after ``arrival + deadline``.
        metrics: The run's :class:`repro.obs.MetricsRegistry` snapshot, with
            the policy's exact memo counters folded in under ``memo.*``.
            Engine counters (``engine.*``) and the decide-latency histogram
            (``decide.wall_ns``) populate only while :func:`repro.obs.enable`
            is in effect; the ``memo.*`` counters are always exact.
            ``memo_hits`` and friends read through to it, preserving the
            pre-``repro.obs`` attribute API.
    """

    end_time: int
    decisions: int
    switches: int
    overhead_ns_total: int = 0
    overhead_ns_by_second: Dict[int, int] = field(default_factory=dict)
    decide_latencies_ns: List[int] = field(default_factory=list)
    deadline_misses: int = 0
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def memo_hits(self) -> int:
        return int(self.metrics.get("memo.hits", 0))

    @property
    def memo_misses(self) -> int:
        return int(self.metrics.get("memo.misses", 0))

    @property
    def memo_evictions(self) -> int:
        return int(self.metrics.get("memo.evictions", 0))

    @property
    def memo_bypassed(self) -> int:
        return int(self.metrics.get("memo.bypassed", 0))

    @property
    def memo_hit_rate(self) -> float:
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    @property
    def fault_injections(self) -> int:
        """Total injected faults (``faults.total``; 0 when no plan ran)."""
        return int(self.metrics.get("faults.total", 0))

    def rates(self) -> Dict[str, float]:
        seconds = self.end_time / SEC
        return {
            "decisions_per_sec": self.decisions / seconds if seconds else 0.0,
            "switches_per_sec": self.switches / seconds if seconds else 0.0,
        }


class Simulator:
    """Two-level hierarchical scheduling simulator.

    Args:
        system: The validated partition set.
        policy: A policy instance or canonical name
            (see :data:`repro.sim.policies.POLICY_NAMES`).
        seed: Master seed; workload jitter and policy randomness derive
            independent streams from it.
        channel: Optional covert-channel script; required when any task uses
            the ``sender``/``receiver`` behaviours.
        behaviors: Optional overrides of the behaviour registry
            (``{behavior_key: Behavior}``).
        observers: Trace observers to notify.
        local_scheduler_factory: Builds the per-partition local scheduler
            from a live callable — the escape hatch for unregistered,
            process-local schedulers (BLINDER's experiments historically
            plug in here). Mutually exclusive with a non-default
            ``scheduler`` name.
        scheduler: Registered local-scheduler name
            (:func:`repro.sim.registry.register_local_scheduler`):
            ``"fp"`` (default), ``"edf"``, ``"reorder"``, ... — the
            spec-addressable way to select the local scheduler
            (``RunSpec.scheduler`` threads through here). Seeded entries
            (REORDER) receive per-partition streams derived from ``seed``.
            Selecting an EDF-based entry runs the
            :mod:`repro.core.edf` supply/demand vetting pass; the verdict
            lands on :attr:`edf_supply_report` (empty = every partition's
            task set is EDF-feasible under its budget server, so TimeDice's
            budget guarantee carries local deadlines too) and ticks the
            gated ``sched.edf_infeasible`` counter per flagged partition.
        quantum: TimeDice MIN_INV_SIZE when ``policy`` is given by name.
        memoize: When ``policy`` is given by name, whether its TimeDice
            variants reuse schedulability-test outcomes across quanta
            (:class:`repro.core.memo.SchedulabilityMemo`; default on).
            Decision traces are bit-identical either way; the memo's
            counters are surfaced on :class:`SimulationResult`.
        measure_overhead: Record wall-clock latency of every policy decision
            (Table IV / Fig. 17). Off by default — it roughly doubles the
            Python overhead of a run.
        budget_donation: Sec. II-a's optional rule: when the CPU would
            otherwise idle (no *active* partition has ready work), a
            budget-depleted partition with pending work may run on the unused
            budget of a higher-priority active-but-idle partition. This (i)
            curbs the donor's deferred-execution interference and (ii)
            improves responsiveness. Off by default so runs match the strict
            budget model of the analyses; switching it on opens an
            *additional* covert channel (the receiver finishes early whenever
            the sender's bit-0 budget is donated to it), exercised by the
            donation-channel ablation. Deliberate TimeDice IDLE selections
            are honoured (the dice outrank the donation fallback); donation
            fires only when there is genuinely nothing schedulable.
        obs: Optional pre-built :class:`repro.obs.RunObs` scope; one is
            created per simulator when omitted. The scope's registry and
            span buffer collect only while :func:`repro.obs.enable` is in
            effect, and are handed down to the policy/memo via their
            ``attach_obs`` hooks. Its snapshot lands on
            ``SimulationResult.metrics``.
        faults: Optional :class:`repro.faults.FaultPlan`. When omitted, the
            process-ambient plan (the CLI's ``--faults`` flag, see
            :func:`repro.faults.activate_plan`) applies, if any. Null plans
            (zero intensity) are discarded at construction, so attaching one
            is bit-identical to attaching nothing: the fault streams draw
            from RNGs derived independently of the workload and policy
            streams, and the hook sites are skipped entirely without an
            active injector. Exact injection counts land on
            ``SimulationResult.metrics`` under ``faults.*``.
    """

    def __init__(
        self,
        system: System,
        policy: Union[str, GlobalPolicyBase] = "norandom",
        seed: int = 0,
        channel: Optional[ChannelScript] = None,
        behaviors: Optional[Dict[str, Behavior]] = None,
        observers: Sequence[Observer] = (),
        local_scheduler_factory=None,
        scheduler: str = DEFAULT_LOCAL_SCHEDULER,
        quantum: int = DEFAULT_QUANTUM,
        measure_overhead: bool = False,
        budget_donation: bool = False,
        memoize: bool = True,
        obs: Optional["_obs.RunObs"] = None,
        faults: Optional["_faults.FaultPlan"] = None,
    ):
        self.system = system
        # Distinct, process-stable streams derived from the master seed.
        self.workload_rng = random.Random(seed * 2 + 1)
        if isinstance(policy, str):
            policy = make_policy(
                policy,
                system=system,
                seed=seed * 2 + 0x9E3779B9,
                quantum=quantum,
                memoize=memoize,
            )
        self.policy = policy
        self.channel = channel
        registry = default_behaviors(channel)
        if behaviors:
            registry.update(behaviors)
        self.behaviors = registry
        self.observers = list(observers)
        self.measure_overhead = measure_overhead
        self.budget_donation = budget_donation

        # -- observability: per-run scope, policy hand-off, trace capture --
        self.obs = obs if obs is not None else _obs.RunObs(
            label=getattr(self.policy, "name", "run")
        )
        registry = self.obs.registry
        self._m_replenish = registry.counter("engine.events.replenish")
        self._m_arrival = registry.counter("engine.events.arrival")
        self._m_segments = registry.counter("engine.segments")
        self._m_busy_us = registry.counter("engine.busy_us")
        self._m_idle_us = registry.counter("engine.idle_us")
        self._h_decide = registry.histogram("decide.wall_ns")
        attach = getattr(self.policy, "attach_obs", None)
        if attach is not None:
            attach(self.obs)

        # -- fault injection: precedence (explicit plan wins over the ambient
        # --faults one, with a one-time warning on a genuine override) is
        # decided by resolve_fault_plan, shared with RunSpec.normalized() —
        # the engine no longer encodes the rule. A plan with no active
        # (non-null) specs leaves the injector slot empty, so every hook site
        # stays on its fast `is None` path and the run is bit-identical to an
        # unfaulted one.
        plan = _faults.resolve_fault_plan(faults, obs=self.obs)
        self._faults: Optional[_faults.FaultInjector] = None
        if plan is not None:
            injector = _faults.FaultInjector(
                plan, seed, partitions=[p.name for p in system]
            )
            if injector.active:
                injector.attach_obs(self.obs)
                self._faults = injector

        capture = _obs.trace_capture()
        if capture is not None and capture.has_room():
            recorder = SegmentRecorder(limit=capture.segment_limit)
            self.observers.append(recorder)
            capture.register(
                _obs.CapturedRun(
                    label=f"{self.obs.label} seed={seed}",
                    partitions=[p.name for p in system],
                    segments=recorder.segments,
                    obs=self.obs,
                )
            )

        if local_scheduler_factory is not None:
            if scheduler != DEFAULT_LOCAL_SCHEDULER:
                raise ValueError(
                    "pass either scheduler=<registered name> or "
                    "local_scheduler_factory=<callable>, not both "
                    f"(got scheduler={scheduler!r} and a factory)"
                )
            factory = local_scheduler_factory
            entry = None
        else:
            entry = find_local_scheduler(scheduler)
            factory = make_local_scheduler_factory(scheduler, seed)
        self.scheduler = scheduler
        self._runtimes: List[_PartitionRuntime] = [
            _PartitionRuntime(spec, factory(spec)) for spec in system
        ]
        # EDF-aware schedulability vetting: TimeDice's candidate search
        # guarantees partition budgets; with an EDF-based local scheduler the
        # local half of the deadline argument is the supply/demand test.
        self.edf_supply_report: Dict[str, str] = {}
        if entry is not None and entry.edf_based:
            from repro.core.edf import edf_supply_report

            self.edf_supply_report = edf_supply_report(system)
            if self.edf_supply_report:
                self.obs.registry.counter("sched.edf_infeasible").inc(
                    len(self.edf_supply_report)
                )
        self._by_name: Dict[str, _PartitionRuntime] = {
            rt.spec.name: rt for rt in self._runtimes
        }
        for rt in self._runtimes:
            for task in rt.spec.tasks:
                if task.behavior not in self.behaviors:
                    raise ValueError(
                        f"task {task.name} uses behavior {task.behavior!r} but no such "
                        f"behavior is registered (did you forget to pass a channel?)"
                    )

        self._queue = EventQueue()
        self._jobs: Dict[int, Job] = {}
        self.now = 0
        self._last_running: Optional[str] = "__none__"
        self._result = SimulationResult(end_time=0, decisions=0, switches=0)
        self._primed = False
        # A scheduling decision whose slice was clipped by a run_until pause
        # boundary and is still live: the next run_until continues it instead
        # of consulting the policy again (see run_until's docstring).
        self._carry: Optional[PolicyChoice] = None
        # The hook chain of the run_until call in flight (see HookSet);
        # refreshed at the top of every run_until call.
        self._hooks: Optional[HookSet] = None

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        observers: Sequence[Observer] = (),
        behaviors: Optional[Dict[str, Behavior]] = None,
        local_scheduler_factory=None,
        obs: Optional["_obs.RunObs"] = None,
    ) -> "Simulator":
        """Build a simulator from a :class:`repro.sim.config.RunSpec`.

        The spec is :meth:`~repro.sim.config.RunSpec.normalized` first, so
        the ambient-fault-plan question is settled before construction and
        the simulator built here is exactly the one the spec's
        ``content_hash()`` names. Non-serializable attachments — observer
        objects, behaviour instances, ad-hoc local-scheduler factories —
        are not part of a spec and are passed alongside it; they never
        affect cache identity. Registered local schedulers travel *inside*
        the spec (``spec.scheduler``); combining a non-default one with an
        explicit ``local_scheduler_factory`` is rejected as ambiguous.
        """
        spec = spec.normalized()
        return cls(
            spec.build_system(),
            policy=spec.policy,
            seed=spec.seed,
            channel=spec.channel_script(),
            behaviors=behaviors,
            observers=observers,
            local_scheduler_factory=local_scheduler_factory,
            scheduler=spec.scheduler,
            quantum=spec.effective_quantum,
            measure_overhead=spec.measure_overhead,
            budget_donation=spec.budget_donation,
            memoize=spec.memoize,
            obs=obs,
            faults=spec.fault_plan(),
        )

    # ----------------------------------------------------------------- setup

    def _prime(self) -> None:
        """Enqueue the first replenishments and arrivals."""
        for index, rt in enumerate(self._runtimes):
            self._queue.push(Event(rt.spec.period, EventKind.REPLENISH, index))
            for task_index, task in enumerate(rt.spec.tasks):
                self._queue.push(
                    Event(task.offset, EventKind.ARRIVAL, (index, task_index))
                )
        self._primed = True

    # ---------------------------------------------------------------- events

    def _handle_replenish(self, event: Event) -> None:
        rt = self._runtimes[event.payload]
        budget = rt.spec.budget
        if self._faults is not None:
            budget = self._faults.perturb_budget(rt.spec.name, event.time, budget)
        rt.remaining_budget = budget
        rt.last_replenishment = event.time
        rt.local.on_replenish(event.time)
        self._queue.push(
            Event(event.time + rt.spec.period, EventKind.REPLENISH, event.payload)
        )

    def _handle_arrival(self, event: Event) -> None:
        part_index, task_index = event.payload
        rt = self._runtimes[part_index]
        task = rt.spec.tasks[task_index]
        behavior = self.behaviors[task.behavior]
        demand = behavior.execution_time(task, event.time, self.workload_rng)
        demand = max(1, min(demand, task.wcet))
        if self._faults is not None:
            # After the WCET clamp: an overrun fault is precisely a job
            # exceeding its declared WCET, which nominal behaviours cannot do.
            demand = self._faults.perturb_demand(
                rt.spec.name, task, event.time, demand
            )
        job = Job(task=task, partition=rt.spec.name, arrival=event.time, demand=demand)
        rt.local.on_arrival(job, event.time)
        gap = behavior.inter_arrival(task, event.time, self.workload_rng)
        gap = max(gap, 1)
        if self._faults is not None:
            gap = self._faults.perturb_gap(rt.spec.name, task, event.time, gap)
        self._queue.push(Event(event.time + gap, EventKind.ARRIVAL, event.payload))

    # -------------------------------------------------------------- notifier

    def _emit_segment(self, start: int, end: int, partition: Optional[str], task: Optional[str]) -> None:
        if end <= start:
            return
        hooks = self._hooks
        if hooks is None or hooks.obs_on:
            self._m_segments.inc()
            if partition is None:
                self._m_idle_us.inc(end - start)
            else:
                self._m_busy_us.inc(end - start)
        key = partition or "__idle__"
        if key != self._last_running:
            if self._last_running != "__none__":
                self._result.switches += 1
            self._last_running = key
        for observer in self.observers:
            observer.on_segment(start, end, partition, task)

    def _emit_completion(self, job: Job) -> None:
        record = JobRecord(
            task=job.task.name,
            partition=job.partition,
            arrival=job.arrival,
            started_at=job.started_at,
            finished_at=job.finished_at,
            demand=job.demand,
        )
        if job.finished_at - job.arrival > job.task.deadline:
            self._result.deadline_misses += 1
        for observer in self.observers:
            observer.on_job_complete(record)

    # ------------------------------------------------------------- donation

    def _find_donation(self):
        """The Sec. II-a fallback for an otherwise-idle CPU.

        Returns ``(recipient, donor)`` — the highest-priority budget-depleted
        partition with ready work, paired with the highest-priority partition
        strictly above it that still holds unused budget — or None when no
        such pair exists. Only called when no active partition has ready
        work, so running the recipient delays nobody; consuming the donor's
        budget can only *reduce* future interference.
        """
        for index, rt in enumerate(self._runtimes):  # decreasing priority
            if rt.remaining_budget == 0 and rt.local.has_ready(self.now):
                for donor in self._runtimes[:index]:
                    if donor.remaining_budget > 0:
                        return rt, donor
        return None

    def _run_donated(self, recipient, donor, duration: int) -> None:
        """Run the recipient's job on the donor's budget for ``duration`` µs."""
        job = recipient.local.pick(self.now)
        if duration <= 0:  # pragma: no cover - all caps are positive here
            raise RuntimeError("donation slice collapsed to zero")
        if job.started_at is None:
            job.started_at = self.now
        job.remaining -= duration
        donor.remaining_budget -= duration
        start = self.now
        self.now += duration
        recipient.local.on_executed(job, duration, self.now)
        self._emit_segment(start, self.now, recipient.spec.name, job.task.name)
        if job.remaining == 0:
            job.finished_at = self.now
            recipient.local.on_complete(job, self.now)
            self._emit_completion(job)

    # ------------------------------------------------------------- main loop

    def _enforce_server_semantics(self) -> None:
        """Apply per-partition budget-discharge rules at a scheduling point.

        A polling server forfeits leftover budget the moment it has no
        pending work; deferrable (the default) and periodic servers retain
        it (the periodic server instead *drains* budget by idling on the CPU
        when scheduled without work — handled in the run loop).
        """
        for rt in self._runtimes:
            if (
                rt.spec.server == "polling"
                and rt.remaining_budget > 0
                and not rt.local.has_ready(self.now)
            ):
                rt.remaining_budget = 0

    def snapshot(self) -> SystemState:
        """The current :class:`SystemState` (also useful in tests)."""
        states = [
            PartitionState(
                name=rt.spec.name,
                period=rt.spec.period,
                max_budget=rt.spec.budget,
                priority=rt.spec.priority,
                remaining_budget=rt.remaining_budget,
                last_replenishment=rt.last_replenishment,
                ready=(
                    rt.local.has_ready(self.now)
                    or (rt.spec.server == "periodic" and rt.remaining_budget > 0)
                ),
            )
            for rt in self._runtimes
        ]
        return SystemState(self.now, states)

    def _any_active_ready(self) -> bool:
        """Whether ``snapshot().active_ready()`` would be non-empty, without
        the cost of building a snapshot (used on the carry path too, where no
        snapshot exists)."""
        for rt in self._runtimes:
            if rt.remaining_budget > 0 and (
                rt.local.has_ready(self.now) or rt.spec.server == "periodic"
            ):
                return True
        return False

    def _natural_end(self, next_event, max_slice, *duration_caps):
        """Absolute end of the current slice ignoring the ``run_until`` pause
        boundary: the next event, the policy's slice bound, and any duration
        caps (remaining budget, job demand). None when genuinely unbounded
        (empty queue, no other cap)."""
        end = next_event
        if max_slice is not None:
            cap = self.now + max(1, max_slice)
            end = cap if end is None else min(end, cap)
        for cap in duration_caps:
            capped = self.now + cap
            end = capped if end is None else min(end, capped)
        return end

    def _clip(self, natural: Optional[int], t_end: int, choice: PolicyChoice) -> int:
        """Clip a slice's natural end to the pause boundary.

        When the boundary — not one of the slice's own caps — is what binds,
        the live decision is remembered in ``self._carry`` (with its slice
        allowance reduced by what this segment consumes) so the next
        ``run_until`` continues it instead of consulting the policy again.
        """
        if natural is not None and natural <= t_end:
            return natural
        remaining = None
        if choice.max_slice is not None:
            remaining = max(1, choice.max_slice) - (t_end - self.now)
        self._carry = PolicyChoice(choice.partition, remaining)
        return t_end

    def _deliver_events(self, hooks: HookSet) -> None:
        """Step 1: pop and dispatch every event due at the current time."""
        if hooks.obs_on:
            dispatch_t0 = _wall.perf_counter_ns()
            dispatched = 0
            for event in self._queue.pop_due(self.now):
                dispatched += 1
                if event.kind == EventKind.REPLENISH:
                    self._m_replenish.inc()
                    self._handle_replenish(event)
                else:
                    self._m_arrival.inc()
                    self._handle_arrival(event)
            if dispatched:
                self.obs.spans.record(
                    "engine.dispatch",
                    dispatch_t0,
                    _wall.perf_counter_ns() - dispatch_t0,
                    sim_ts=self.now,
                    cat="engine",
                )
        else:
            for event in self._queue.pop_due(self.now):
                if event.kind == EventKind.REPLENISH:
                    self._handle_replenish(event)
                else:
                    self._handle_arrival(event)

    def _decide(self, hooks: HookSet) -> PolicyChoice:
        """Step 2: consult the global policy (clocked only when required)."""
        result = self._result
        state = self.snapshot()
        if hooks.timed:
            t0 = _wall.perf_counter_ns()
            choice = self.policy.decide(state)
            elapsed = _wall.perf_counter_ns() - t0
            if hooks.measure:
                result.overhead_ns_total += elapsed
                second = self.now // SEC
                result.overhead_ns_by_second[second] = (
                    result.overhead_ns_by_second.get(second, 0) + elapsed
                )
                result.decide_latencies_ns.append(elapsed)
            if hooks.obs_on:
                self._h_decide.observe(elapsed)
                self.obs.spans.record(
                    "decide", t0, elapsed, sim_ts=self.now, cat="scheduler"
                )
        else:
            choice = self.policy.decide(state)
        result.decisions += 1
        for observer in hooks.observers:
            observer.on_decision(self.now, choice.partition)
        return choice

    def _execute_slice(
        self,
        choice: PolicyChoice,
        next_event: Optional[int],
        t_end: int,
    ) -> None:
        """Step 3: act on the decision for the longest admissible slice.

        Exactly one of the four sub-paths runs: donation/idle (no partition
        chosen), periodic-server budget drain, defensive bounded idling for
        an unrunnable selection, or the normal execution slice. Each path
        advances ``self.now`` and leaves ``self._carry`` set when the pause
        boundary — not a real cap — ended the slice.
        """
        if choice.partition is None:
            donation = None
            if self.budget_donation and not self._any_active_ready():
                donation = self._find_donation()
            if donation is not None:
                recipient, donor = donation
                job = recipient.local.pick(self.now)
                natural = self._natural_end(
                    next_event,
                    choice.max_slice,
                    donor.remaining_budget,
                    job.remaining,
                )
                end = self._clip(natural, t_end, choice)
                self._run_donated(recipient, donor, end - self.now)
                return
            end = self._clip(
                self._natural_end(next_event, choice.max_slice), t_end, choice
            )
            self._emit_segment(self.now, end, None, None)
            self.now = end
            return

        rt = self._by_name[choice.partition]
        job = rt.local.pick(self.now)
        if job is None and rt.spec.server == "periodic" and rt.remaining_budget > 0:
            # A periodic server occupies the CPU and drains its budget
            # even without work — that determinism is its whole point.
            natural = self._natural_end(
                next_event, choice.max_slice, rt.remaining_budget
            )
            end = self._clip(natural, t_end, choice)
            duration = end - self.now
            rt.remaining_budget -= duration
            start = self.now
            self.now = end
            self._emit_segment(start, self.now, rt.spec.name, None)
            return
        if job is None or rt.remaining_budget <= 0:
            # Defensive: a policy should never select a partition that
            # cannot run; treat it as (bounded) idling rather than crash.
            end = self._clip(
                self._natural_end(next_event, choice.max_slice), t_end, choice
            )
            self._emit_segment(self.now, end, None, None)
            self.now = end
            return

        natural = self._natural_end(
            next_event, choice.max_slice, rt.remaining_budget, job.remaining
        )
        end = self._clip(natural, t_end, choice)
        duration = end - self.now
        if duration <= 0:  # pragma: no cover - guarded by checks above
            raise RuntimeError("scheduling slice collapsed to zero")

        if job.started_at is None:
            job.started_at = self.now
        job.remaining -= duration
        rt.remaining_budget -= duration
        start = self.now
        self.now = end
        rt.local.on_executed(job, duration, self.now)
        self._emit_segment(start, self.now, rt.spec.name, job.task.name)
        if job.remaining == 0:
            job.finished_at = self.now
            rt.local.on_complete(job, self.now)
            self._emit_completion(job)

    def _account(self) -> SimulationResult:
        """Step 4: fold the run's exact and gated metrics into the result."""
        result = self._result
        result.end_time = self.now
        # The memo counters come from the policy's exact MemoStats
        # accumulator (not gated counters), so they are correct whether or
        # not obs is on.
        metrics = self.obs.registry.snapshot()
        memo_stats = getattr(self.policy, "memo_stats", None)
        if memo_stats is not None:
            metrics["memo.hits"] = memo_stats.hits
            metrics["memo.misses"] = memo_stats.misses
            metrics["memo.evictions"] = memo_stats.evictions
            metrics["memo.bypassed"] = memo_stats.bypassed
        # Same overwrite discipline for the injector's exact counts: correct
        # across repeated run_until calls, gate on or off.
        if self._faults is not None:
            metrics.update(self._faults.metrics())
        result.metrics = metrics
        return result

    def run_until(self, t_end: int) -> SimulationResult:
        """Advance the simulation to absolute time ``t_end`` (µs).

        Each iteration is the four-step machine ``_deliver_events`` →
        ``_decide`` → ``_execute_slice`` → (on exit) ``_account``, driven by
        a :class:`HookSet` precomputed for this call.

        Runs may be resumed by calling ``run_until`` again with a later
        time, and a paused-and-resumed run is **bit-identical** to the
        uninterrupted one for every policy, randomized ones included: the
        horizon is peeked before the policy is consulted, and when the pause
        boundary cuts an execution slice short the live decision is carried
        across the pause — the policy is not consulted again mid-slice, so
        ``decisions`` is not inflated and no extra RNG draw is burnt.
        """
        if not self._primed:
            self._prime()
        hooks = HookSet.for_run(self)
        self._hooks = hooks
        queue = self._queue
        while self.now < t_end:
            carried = self._carry
            self._carry = None
            if carried is not None:
                # Continue the slice a previous run_until clipped. No events
                # can be due (a carry exists only when the next event lies
                # strictly beyond the old boundary) and server semantics were
                # already enforced at the decision's real scheduling point —
                # consulting the policy again here is exactly the wart this
                # path removes.
                choice = carried
                next_event = queue.peek_time()
            else:
                self._deliver_events(hooks)
                self._enforce_server_semantics()
                # Peek the horizon *before* consulting the policy: a decision
                # for a zero-length slice would inflate `decisions` and burn
                # an RNG draw without ever being acted on.
                next_event = queue.peek_time()
                horizon = t_end if next_event is None else min(next_event, t_end)
                if horizon <= self.now:  # pragma: no cover - queue head is
                    break  # always in the future once due events are popped
                choice = self._decide(hooks)
            self._execute_slice(choice, next_event, t_end)
        result = self._account()
        if _events.EVENTS.active:
            _events.emit(
                "engine.run",
                label=self.obs.label,
                end_time=result.end_time,
                decisions=result.decisions,
                deadline_misses=result.deadline_misses,
            )
        return result

    def _run_for(self, duration: float, unit: int, what: str) -> SimulationResult:
        if not duration > 0:
            raise ValueError(f"duration must be positive, got {duration!r} {what}")
        delta = round(duration * unit)
        if delta <= 0:
            raise ValueError(
                f"duration {duration!r} {what} rounds to zero whole microseconds"
            )
        return self.run_until(self.now + delta)

    def run_for_ms(self, duration_ms: float) -> SimulationResult:
        """Run for ``duration_ms`` simulated milliseconds from the current time.

        The duration must be positive and amount to at least one whole
        microsecond after rounding (the engine's clock unit).
        """
        return self._run_for(duration_ms, MS, "ms")

    def run_for_seconds(self, duration_s: float) -> SimulationResult:
        """Run for ``duration_s`` simulated seconds from the current time.

        Same validation and whole-µs rounding as :meth:`run_for_ms`.
        """
        return self._run_for(duration_s, SEC, "s")
