"""The vectorized batch-simulation engine.

Campaign sweeps (fig. 4, fig. 12, the load/defense matrices) run thousands
of :class:`~repro.sim.config.RunSpec` cells that differ only in seed,
policy, or fault plan over the *same* partition system. The scalar engine
pays Python-object overhead at every scheduling point of every run —
snapshot construction, candidate search, selector dispatch — which is the
campaign throughput bottleneck.

:class:`BatchSimulator` advances ``B`` compatible runs in lockstep, holding
per-partition budgets, replenishment lattices, head-job demands, and
candidate masks as ``(run, partition)`` numpy arrays. Each round delivers
due events, consults the per-run policies, and executes one slice for every
live run; the per-round vector work replaces the per-run Python work of the
scalar pipeline:

- budget replenishments come from a ``next_replenish`` lattice instead of
  heap events (at most one replenishment per partition is ever pending,
  because the engine never advances past an undelivered event);
- the polling-server forfeit, the next-event horizon, the NoRandom argmax,
  and the TDMA slot lookup are single array expressions over all runs;
- the TimeDice candidate search runs the Eq. (1) busy-interval fixed point
  for **all priority ranks of all runs at once** as a ``(B, N, N)``
  interference tensor, then derives each run's candidate list from the
  prefix-AND of the per-rank pass mask (more tests than the scalar
  incremental sweep, identical outcomes);
- slice ends, budget/demand accounting, and context-switch counting are
  masked array updates.

Divergent per-run decisions are handled by masked sub-steps, never by
falling back to a scalar run. The only per-run Python left is what *must*
replicate the scalar engine's RNG-consumption order exactly: job arrivals
(workload-RNG draws in per-run event order), the TimeDice selector draw
(sequential float accumulation reading integers out of the arrays), and
job completions.

**Bit-identity contract**: for every supported spec the batch engine
produces the same decision sequence, segment trace, job records, and
deterministic metrics as ``Simulator.from_spec(spec).run_until(h)`` —
enforced by ``tests/integration/test_batch_differential.py``.

Campaign grouping (:mod:`repro.runner.pool`) is the one entry to this
engine: the runner groups pending ``simulate_cell`` cells that pass
:func:`batch_compatible` and share a :func:`batch_group_key`, and runs each
group of two or more through :func:`run_specs_batched`. Every other run —
including every ``Simulator.from_spec`` call — takes the scalar engine.

What the batch engine does **not** reproduce: the schedulability memo (its
``memo.*`` counters are engine-implementation artifacts, absent here), the
``decide.wall_ns`` latency histogram, and ``run_until`` pause/resume.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.faults as _faults
import repro.obs as _obs
import repro.obs.events as _events
from repro.core.busy_interval import MAX_ITERATIONS
from repro.obs.gate import GATE
from repro.sim.behaviors import default_behaviors
import repro.sim.registry as _registry
from repro.sim.config import RunSpec, canonical_json
from repro.sim.engine import SimulationResult
from repro.sim.local import Job
from repro.sim.trace import JobRecord

#: Sentinel "time" for an empty arrival heap (never reached: horizons are
#: int64-safe microsecond counts).
_NEVER = np.int64(2**62)

#: The InverseUtilizationSelector's utilization floor.
_INVERSE_EPSILON = 1e-3

#: Shared schedulability-memo size bound. The memo is a plain dict cleared
#: wholesale when it outgrows this — exactness is unaffected (entries are a
#: pure function of their key) and hot phase lattices repopulate within one
#: hyperperiod.
_MEMO_CAP = 1 << 16

#: Memo-miss count at or below which the early-exit integer fixed point
#: beats launching the (B, N, N) tensor (whose cost is dominated by numpy
#: call overhead, not data size, at campaign-sized batches).
_PYTHON_FIXPOINT_CUTOFF = 32


def batch_compatible(spec: RunSpec) -> Optional[str]:
    """Why ``spec`` cannot run on the batch engine, or None when it can.

    The batch engine covers every speccable run except: the two features
    whose semantics live in scalar-only code paths (the Sec. II-a budget
    donation fallback and per-decision wall-clock measurement), non-default
    local schedulers (``spec.scheduler`` — the vectorized ready-queue model
    is fixed-priority only), and global policies whose registry entry is not
    marked batch-capable (third-party registrations).
    """
    if spec.budget_donation:
        return "budget_donation"
    if spec.measure_overhead:
        return "measure_overhead"
    if spec.scheduler != _registry.DEFAULT_LOCAL_SCHEDULER:
        return "scheduler"
    entry = _registry.find_global_policy(spec.policy)
    if entry is None or not entry.batch:
        return "policy"
    return None


def batch_group_key(spec: RunSpec) -> tuple:
    """Cells sharing this key may advance in lockstep: same system document
    (hence same partition count, priorities, and TDMA table) and same
    horizon. Seeds, policies, quanta, channels, and fault plans may differ
    freely within a group."""
    return (canonical_json(spec.build_system().to_dict()), spec.horizon)


class _Run:
    """Per-run Python state the arrays cannot hold."""

    __slots__ = (
        "spec",
        "workload_rng",
        "policy_rng",
        "selector_kind",
        "quantum",
        "behaviors",
        "injector",
        "fault_budget_ranks",
        "observers",
        "obs",
        "arrivals",
        "acount",
        "ready",
        "m_replenish",
        "m_arrival",
        "m_segments",
        "m_busy_us",
        "m_idle_us",
    )

    def __init__(self, spec: RunSpec, system, observers: Sequence) -> None:
        self.spec = spec
        seed = spec.seed
        # The scalar engine's exact stream derivations. Labels and selector
        # kinds come from the policy registry (the scalar engine reads the
        # same data off the built instance), so a registered third-party
        # policy name can never be mislabeled by a stale string map.
        self.workload_rng = random.Random(seed * 2 + 1)
        entry = _registry.get_global_policy(spec.policy)
        self.selector_kind = entry.selector_kind
        self.policy_rng = (
            random.Random(seed * 2 + 0x9E3779B9)
            if self.selector_kind is not None
            else None
        )
        self.quantum = spec.effective_quantum
        self.behaviors = default_behaviors(spec.channel_script())
        self.observers = tuple(observers)
        self.obs = _obs.RunObs(label=entry.label)
        registry = self.obs.registry
        self.m_replenish = registry.counter("engine.events.replenish")
        self.m_arrival = registry.counter("engine.events.arrival")
        self.m_segments = registry.counter("engine.segments")
        self.m_busy_us = registry.counter("engine.busy_us")
        self.m_idle_us = registry.counter("engine.idle_us")

        plan = spec.fault_plan()
        self.injector: Optional[_faults.FaultInjector] = None
        self.fault_budget_ranks: tuple = ()
        if plan is not None:
            injector = _faults.FaultInjector(
                plan, seed, partitions=[p.name for p in system]
            )
            if injector.active:
                injector.attach_obs(self.obs)
                self.injector = injector
                self.fault_budget_ranks = tuple(
                    rank
                    for rank, part in enumerate(system.partitions)
                    if part.name in injector._budget
                )

        # Arrivals-only event heap: (time, insertion counter, rank, task
        # index). Replenishments live in the next_replenish lattice instead.
        self.arrivals: List[tuple] = []
        self.acount = itertools.count()
        self.ready: List[List[Job]] = [[] for _ in system.partitions]


class BatchSimulator:
    """Advance many compatible runs in lockstep (see module docstring).

    Args:
        specs: The runs. All must share one canonical system document
            (:func:`batch_group_key`) and pass :func:`batch_compatible`;
            anything else raises ``ValueError`` at construction.
        observers: Optional per-run observer lists, aligned with ``specs``.

    The engine runs each spec exactly once, to one common horizon:
    :meth:`run` has no pause/resume (``run_until`` carry) semantics.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        observers: Optional[Sequence[Sequence]] = None,
    ) -> None:
        if not specs:
            raise ValueError("BatchSimulator needs at least one spec")
        specs = [spec.normalized() for spec in specs]
        for spec in specs:
            reason = batch_compatible(spec)
            if reason is not None:
                raise ValueError(
                    f"spec is not batch-compatible ({reason}); run it on the "
                    "scalar engine"
                )
        self.system = specs[0].build_system()
        doc = canonical_json(self.system.to_dict())
        for spec in specs[1:]:
            if canonical_json(spec.build_system().to_dict()) != doc:
                raise ValueError(
                    "all specs in a batch must share one system document"
                )
        self.specs = specs

        parts = self.system.partitions
        n = len(parts)
        b = len(specs)
        self._n = n
        self._b = b
        self._names = [p.name for p in parts]
        self._tasks = [list(p.tasks) for p in parts]
        self._period = np.array([p.period for p in parts], dtype=np.int64)
        self._max_budget = np.array([p.budget for p in parts], dtype=np.int64)
        self._polling = np.array([p.server == "polling" for p in parts])
        self._periodic = np.array([p.server == "periodic" for p in parts])

        # Struct-of-arrays run state, one row per run.
        self._rem = np.tile(self._max_budget, (b, 1))
        self._last_repl = np.zeros((b, n), dtype=np.int64)
        self._next_repl = np.tile(self._period, (b, 1))
        self._nready = np.zeros((b, n), dtype=np.int64)
        self._head_rem = np.zeros((b, n), dtype=np.int64)
        self._head_started = np.full((b, n), -1, dtype=np.int64)
        self._now = np.zeros(b, dtype=np.int64)
        self._arr_peek = np.full(b, _NEVER, dtype=np.int64)
        self._decisions = np.zeros(b, dtype=np.int64)
        self._switches = np.zeros(b, dtype=np.int64)
        self._misses = np.zeros(b, dtype=np.int64)
        # Last-running key per run: -2 = "__none__", -1 = idle, rank else.
        self._last_key = np.full(b, -2, dtype=np.int64)
        self._quantum = np.array(
            [spec.effective_quantum for spec in specs], dtype=np.int64
        )

        if observers is None:
            observers = [()] * b
        if len(observers) != b:
            raise ValueError("observers must align with specs")
        self._runs = [
            _Run(spec, self.system, obs) for spec, obs in zip(specs, observers)
        ]
        self._any_observers = any(run.observers for run in self._runs)

        # Group runs by registry-declared selector kind, not by comparing
        # policy-name strings: None = non-randomized (norandom/tdma split by
        # name below among batch-capable builtins).
        kinds = [run.selector_kind for run in self._runs]
        policies = [spec.policy for spec in specs]
        self._idx_norandom = np.array(
            [i for i, p in enumerate(policies) if p == "norandom"], dtype=np.intp
        )
        self._idx_timedice = np.array(
            [i for i, kind in enumerate(kinds) if kind is not None],
            dtype=np.intp,
        )
        self._idx_tdma = np.array(
            [i for i, p in enumerate(policies) if p == "tdma"], dtype=np.intp
        )
        self._any_util_selector = any(
            kind in ("weighted", "inverse") for kind in kinds
        )
        # Hot-loop helpers for _decide_timedice.
        self._period_list = self._period.tolist()
        self._budget_list = self._max_budget.tolist()
        self._pow2 = np.array([1 << r for r in range(n)], dtype=np.int64)
        self._cand_cache: Dict[tuple, List[int]] = {}
        quanta = {spec.effective_quantum for spec in specs}
        self._uniform_quantum = len(quanta) == 1
        self._uniform_q = next(iter(quanta))
        self._rng_by_b = [run.policy_rng for run in self._runs]
        self._kind_by_b = [run.selector_kind for run in self._runs]
        # UniformSelector draws via rng.randrange(n), which is a thin
        # argument-checking wrapper over Random._randbelow(n) — call the
        # latter directly when available (identical bit stream, one call
        # frame less on the hottest line of uniform-selector campaigns).
        self._randbelow_by_b = [
            getattr(run.policy_rng, "_randbelow", None)
            or (run.policy_rng.randrange if run.policy_rng else None)
            for run in self._runs
        ]
        # Static pieces of the (B, N, N) schedulability tensor: the budget
        # each partition j contributes to the rank-r interference sum when
        # j ranks strictly higher (lower triangle). The dynamic j == r
        # self-interference term (only while rank r is inactive) is applied
        # as a separate 2-D pass in :meth:`_schedulability_masks`.
        self._budget_tril = (
            np.tril(np.ones((n, n), dtype=np.int64), -1) * self._max_budget[None, :]
        )[None, :, :]
        # Shared phase-relative schedulability memo (see repro.core.memo for
        # the exactness argument): (quantum, replenishment phases, remaining
        # budgets) -> first failing rank. Period and max-budget vectors are
        # part of the batch's shared system, so they drop out of the key —
        # which also lets every run in the batch share one cache.
        self._sched_memo: Dict[tuple, int] = {}

        if len(self._idx_tdma):
            from repro.sim.policies import TDMAPolicy

            table = TDMAPolicy(self.system)
            self._tdma_hyper = table.hyperperiod
            self._tdma_starts = np.array(
                [s.start for s in table.slots], dtype=np.int64
            )
            self._tdma_ends = np.array([s.end for s in table.slots], dtype=np.int64)
            rank_of = {name: i for i, name in enumerate(self._names)}
            self._tdma_owner = np.array(
                [rank_of[s.partition] for s in table.slots], dtype=np.int64
            )
            # starts padded with the hyperperiod: the idle gap after the
            # last slot ends at the wrap-around.
            self._tdma_starts_ext = np.append(self._tdma_starts, self._tdma_hyper)

        self._prime()

    # ----------------------------------------------------------------- setup

    def _prime(self) -> None:
        """Queue each run's first arrivals, in the scalar priming order."""
        for b, run in enumerate(self._runs):
            for rank, tasks in enumerate(self._tasks):
                for task_index, task in enumerate(tasks):
                    heapq.heappush(
                        run.arrivals,
                        (task.offset, next(run.acount), rank, task_index),
                    )
            if run.arrivals:
                self._arr_peek[b] = run.arrivals[0][0]

    # ---------------------------------------------------------------- events

    def _sync_head(self, b: int, rank: int) -> None:
        """Re-derive the head-job mirror arrays for ``(run, partition)``."""
        lst = self._runs[b].ready[rank]
        self._nready[b, rank] = len(lst)
        if lst:
            head = lst[0]
            self._head_rem[b, rank] = head.remaining
            self._head_started[b, rank] = (
                -1 if head.started_at is None else head.started_at
            )
        else:
            self._head_rem[b, rank] = 0
            self._head_started[b, rank] = -1

    def _writeback_head(self, b: int, rank: int) -> None:
        """Flush the array mirror back into the head Job object."""
        lst = self._runs[b].ready[rank]
        if lst:
            head = lst[0]
            head.remaining = int(self._head_rem[b, rank])
            started = int(self._head_started[b, rank])
            head.started_at = None if started < 0 else started

    def _deliver_replenishments(self, alive: np.ndarray, obs_on: bool) -> None:
        due = (self._next_repl <= self._now[:, None]) & alive[:, None]
        if not due.any():
            return
        rows, cols = np.nonzero(due)
        # Default refill; fault-targeted cells are fixed up below with the
        # same (partition-independent) stream order as the scalar engine.
        self._last_repl[rows, cols] = self._next_repl[rows, cols]
        self._rem[rows, cols] = self._max_budget[cols]
        for b, run in enumerate(self._runs):
            if run.fault_budget_ranks:
                for rank in run.fault_budget_ranks:
                    if due[b, rank]:
                        self._rem[b, rank] = run.injector.perturb_budget(
                            self._names[rank],
                            int(self._last_repl[b, rank]),
                            int(self._max_budget[rank]),
                        )
        self._next_repl[rows, cols] += self._period[cols]
        if obs_on:
            counts = due.sum(axis=1)
            for b in np.nonzero(counts)[0]:
                self._runs[b].m_replenish.inc(int(counts[b]))

    def _deliver_arrivals(self, alive_idx: np.ndarray, obs_on: bool) -> None:
        due_runs = alive_idx[
            self._arr_peek[alive_idx] <= self._now[alive_idx]
        ]
        for b in due_runs:
            run = self._runs[int(b)]
            heap = run.arrivals
            now_b = int(self._now[b])
            injector = run.injector
            arrived = 0
            while heap and heap[0][0] <= now_b:
                t, _, rank, task_index = heapq.heappop(heap)
                task = self._tasks[rank][task_index]
                behavior = run.behaviors[task.behavior]
                demand = behavior.execution_time(task, t, run.workload_rng)
                demand = max(1, min(demand, task.wcet))
                if injector is not None:
                    demand = injector.perturb_demand(
                        self._names[rank], task, t, demand
                    )
                job = Job(
                    task=task,
                    partition=self._names[rank],
                    arrival=t,
                    demand=demand,
                )
                self._writeback_head(int(b), rank)
                lst = run.ready[rank]
                lst.append(job)
                lst.sort(key=lambda j: (j.task.local_priority, j.arrival, j.job_id))
                self._sync_head(int(b), rank)
                gap = behavior.inter_arrival(task, t, run.workload_rng)
                gap = max(gap, 1)
                if injector is not None:
                    gap = injector.perturb_gap(self._names[rank], task, t, gap)
                heapq.heappush(heap, (t + gap, next(run.acount), rank, task_index))
                arrived += 1
            self._arr_peek[b] = heap[0][0] if heap else _NEVER
            if obs_on and arrived:
                run.m_arrival.inc(arrived)

    # ---------------------------------------------------------------- decide

    def _schedulability_masks(self, idx: np.ndarray) -> np.ndarray:
        """Eq. (1) fixed point for every priority rank of every run in
        ``idx`` at once; returns the (len(idx), N) pass mask."""
        now = self._now[idx][:, None]
        rem = self._rem[idx]
        offset = self._last_repl[idx] + self._period[None, :] - now
        inactive = rem == 0
        slack = offset + np.where(inactive, self._period[None, :], 0)
        w0 = self._quantum[idx][:, None] + np.cumsum(rem, axis=1)
        period_j = self._period[None, None, :]
        period_r = self._period[None, :]
        # diag_budget[b, r]: rank r's own replenishments interfere with its
        # test only while it is inactive (Fig. 8); strictly-higher ranks
        # always do, via the static lower-triangular weights.
        diag_budget = np.where(inactive, self._max_budget[None, :], 0)

        window = w0.copy()
        undone = slack >= 0
        passed = np.zeros_like(undone)
        rows = np.arange(idx.shape[0])
        for _ in range(MAX_ITERATIONS):
            live = undone.any(axis=1)
            if not live.all():
                # Compact fully-decided rows out of the iteration; the
                # tensor below is the whole cost of this function.
                if not live.any():
                    break
                keep = np.nonzero(live)[0]
                rows = rows[keep]
                undone = undone[keep]
                window = window[keep]
                slack = slack[keep]
                w0 = w0[keep]
                offset = offset[keep]
                diag_budget = diag_budget[keep]
            undone &= window <= slack  # window > slack -> INFEASIBLE
            if not undone.any():
                break
            x = window[:, :, None] - offset[:, None, :]
            # ceil(x / p) for x > 0, clamped to 0 otherwise: for x <= 0 the
            # (-(-x // p)) identity yields a value <= 0, so one maximum()
            # replaces the x > 0 predicate and its where().
            reps = np.maximum(-((-x) // period_j), 0)
            nxt = w0 + (reps * self._budget_tril).sum(axis=2)
            dreps = np.maximum(-((-(window - offset)) // period_r), 0)
            nxt += dreps * diag_budget
            converged = undone & (nxt == window)
            conv_r, conv_c = np.nonzero(converged)
            passed[rows[conv_r], conv_c] = True
            undone &= ~converged
            window = np.where(undone, nxt, window)
        return passed

    def _decide(
        self,
        alive: np.ndarray,
        choice: np.ndarray,
        max_slice: np.ndarray,
    ) -> None:
        """Fill per-run decisions: ``choice`` rank (-1 idle), ``max_slice``
        in µs (-1 means unbounded)."""
        ready_flag = (self._nready > 0) | (self._periodic[None, :] & (self._rem > 0))
        ar = (self._rem > 0) & ready_flag

        idx = self._idx_norandom
        if len(idx):
            sub = ar[idx]
            any_ar = sub.any(axis=1)
            choice[idx] = np.where(any_ar, sub.argmax(axis=1), -1)
            max_slice[idx] = -1

        idx = self._idx_tdma
        if len(idx):
            phase = self._now[idx] % self._tdma_hyper
            pos = np.searchsorted(self._tdma_ends, phase, side="right")
            in_table = pos < len(self._tdma_ends)
            pos_c = np.minimum(pos, len(self._tdma_ends) - 1)
            in_slot = in_table & (self._tdma_starts[pos_c] <= phase)
            owner = self._tdma_owner[pos_c]
            runnable = in_slot & ar[idx, owner]
            choice[idx] = np.where(runnable, owner, -1)
            until = np.where(
                in_slot,
                self._tdma_ends[pos_c] - phase,
                self._tdma_starts_ext[pos] - phase,
            )
            max_slice[idx] = until

        idx = self._idx_timedice
        if len(idx):
            live = idx[alive[idx]]
            if len(live):
                self._decide_timedice(live, ar, choice)
                max_slice[live] = self._quantum[live]

    def _first_fail_python(self, phases: List[int], rems: List[int], w: int) -> int:
        """Exact-int first failing rank for one run (the small-miss-set path
        of :meth:`_decide_timedice`): the scalar busy-interval fixed point
        rank by rank, with early exit at the first failure — cheaper than
        the (B, N, N) tensor when only a few runs missed the memo."""
        periods = self._period_list
        budgets = self._budget_list
        w0 = w
        for r in range(self._n):
            rem_r = rems[r]
            offset_r = phases[r] + periods[r]
            inactive = rem_r == 0
            slack = offset_r + (periods[r] if inactive else 0)
            if slack < 0:
                return r
            w0 += rem_r
            window = w0
            for _ in range(MAX_ITERATIONS):
                if window > slack:
                    return r
                nxt = w0
                for j in range(r):
                    x = window - (phases[j] + periods[j])
                    if x > 0:
                        nxt += -(-x // periods[j]) * budgets[j]
                if inactive:
                    x = window - offset_r
                    if x > 0:
                        nxt += -(-x // periods[r]) * budgets[r]
                if nxt == window:
                    break
                window = nxt
            else:
                return r  # iteration cap: INFEASIBLE, hence failed
        return self._n

    def _cands_for(self, bits: int, limit: int) -> List[int]:
        """Candidate prefix for a (ready-bitmask, first-fail limit) pair:
        the highest-priority active-ready rank is always a candidate; lower
        actives only up to the first failing rank; IDLE iff every rank
        passes. (Cached — there are only 2^N * (N+1) possible inputs and a
        campaign revisits a handful of them.)"""
        cands: List[int] = []
        for r in range(self._n):
            if bits >> r & 1:
                if not cands or r <= limit:
                    cands.append(r)
                else:
                    break
        if not cands:
            # No active ready partition: the candidate list is [IDLE] and
            # the selector still burns its draw.
            cands = [-1]
        elif limit == self._n:
            cands.append(-1)
        return cands

    def _decide_timedice(
        self, live: np.ndarray, ar: np.ndarray, choice: np.ndarray
    ) -> None:
        """The TimeDice decision for every live TimeDice run.

        The schedulability outcome is served from the shared phase-relative
        memo where possible (keyed on the raw bytes of each run's
        ``(phases, remaining budgets)`` row — period and budget vectors are
        batch constants); memo misses take the vectorized ``(B, N, N)``
        fixed point when there are many, the early-exit integer one when
        there are few. Everything per-run after that — the candidate cache
        probe, selector weights, the RNG draw — runs in plain Python over
        ``.tolist()`` rows, because it must consume each run's policy RNG
        in exactly the scalar order (and a handful of float ops per run is
        cheaper in Python than as length-N array expressions anyway).
        """
        n = self._n
        live_list = live.tolist()
        phases = self._last_repl[live] - self._now[live][:, None]
        rem = self._rem[live]
        packed = np.concatenate([phases, rem], axis=1)
        blob = packed.tobytes()
        row_bytes = 2 * n * 8
        q_rows = None if self._uniform_quantum else self._quantum[live].tolist()
        memo = self._sched_memo
        keys: List = [
            blob[k * row_bytes : (k + 1) * row_bytes] for k in range(len(live_list))
        ]
        if q_rows is not None:
            keys = [(q, key) for q, key in zip(q_rows, keys)]
        limits: List[Optional[int]] = list(map(memo.get, keys))
        miss_ks: List[int] = [k for k, lim in enumerate(limits) if lim is None]
        if miss_ks:
            if len(miss_ks) <= _PYTHON_FIXPOINT_CUTOFF:
                phase_rows = phases.tolist()
                rem_rows = rem.tolist()
                for k in miss_ks:
                    w = self._uniform_q if q_rows is None else q_rows[k]
                    limit = self._first_fail_python(phase_rows[k], rem_rows[k], w)
                    limits[k] = limit
                    memo[keys[k]] = limit
            else:
                passed = self._schedulability_masks(live[miss_ks])
                all_pass = passed.all(axis=1)
                fails = np.where(all_pass, n, (~passed).argmax(axis=1)).tolist()
                for k, limit in zip(miss_ks, fails):
                    limits[k] = limit
                    memo[keys[k]] = limit
            if len(memo) > _MEMO_CAP:
                memo.clear()

        u_rows = None
        if self._any_util_selector:
            # PartitionState.remaining_utilization for every rank at once.
            # int64/float64 division is exact vs. the scalar's int/int
            # division: every operand is far below 2**53.
            horizon = phases + self._period[None, :]
            u = np.minimum(1.0, rem / np.maximum(horizon, 1))
            u_rows = np.where(horizon <= 0, (rem > 0).astype(np.float64), u).tolist()

        arbits = (ar[live].astype(np.int64) @ self._pow2).tolist()
        cand_cache = self._cand_cache
        randbelow_by_b = self._randbelow_by_b
        rng_by_b = self._rng_by_b
        kind_by_b = self._kind_by_b
        picks: List[int] = []
        for k, b in enumerate(live_list):
            limit = limits[k]
            cand_key = (arbits[k], limit)
            cands = cand_cache.get(cand_key)
            if cands is None:
                cands = self._cands_for(arbits[k], limit)
                cand_cache[cand_key] = cands

            kind = kind_by_b[b]
            if kind == "uniform":
                picks.append(cands[randbelow_by_b[b](len(cands))])
                continue
            rng = rng_by_b[b]
            if len(cands) == 1:
                # Both utilization selectors assign a lone candidate (IDLE
                # included) probability exactly 1.0, and rng.random() is
                # always < 1.0 — draw and take it.
                rng.random()
                picks.append(cands[0])
                continue
            # IDLE (-1), when present, is always the last candidate, so the
            # scalar's placeholder-then-replace construction reduces to
            # appending the idle weight last. The division by `total` is
            # folded into the cumulative walk: identical float operations
            # in identical order, just no intermediate probability list.
            u_row = u_rows[k]
            if kind == "weighted":
                raw: List[float] = []
                utilization_sum = 0.0
                has_idle = cands[-1] < 0
                for c in cands[:-1] if has_idle else cands:
                    u_c = u_row[c]
                    raw.append(u_c)
                    utilization_sum += u_c
                if has_idle:
                    raw.append(max(0.0, 1.0 - utilization_sum))
                total = sum(raw)
            else:  # inverse
                raw = [
                    1.0 if c < 0 else 1.0 / max(u_row[c], _INVERSE_EPSILON)
                    for c in cands
                ]
                total = sum(raw)
            point = rng.random()
            cumulative = 0.0
            chosen = cands[-1]
            if total <= 0.0:
                # Degenerate weighted case: uniform probabilities.
                probability = 1.0 / len(cands)
                for candidate in cands:
                    cumulative += probability
                    if point < cumulative:
                        chosen = candidate
                        break
            else:
                for candidate, weight in zip(cands, raw):
                    cumulative += weight / total
                    if point < cumulative:
                        chosen = candidate
                        break
            picks.append(chosen)
        # One fancy-indexed write-back instead of a numpy scalar
        # assignment per run.
        choice[live] = picks

    # --------------------------------------------------------------- run loop

    def run(self, t_end: int) -> List[SimulationResult]:
        """Advance every run from 0 to absolute time ``t_end`` (µs)."""
        if t_end <= 0:
            raise ValueError(f"t_end must be positive, got {t_end}")
        b = self._b
        obs_on = GATE.enabled
        slow_path = obs_on or self._any_observers
        choice = np.empty(b, dtype=np.int64)
        max_slice = np.empty(b, dtype=np.int64)
        rows_all = np.arange(b)

        while True:
            alive = self._now < t_end
            if not alive.any():
                break
            alive_idx = np.nonzero(alive)[0]

            # Step 1: deliver due events, then server semantics.
            self._deliver_replenishments(alive, obs_on)
            self._deliver_arrivals(alive_idx, obs_on)
            forfeit = (
                self._polling[None, :]
                & (self._rem > 0)
                & (self._nready == 0)
                & alive[:, None]
            )
            if forfeit.any():
                self._rem[forfeit] = 0

            # Step 2: decide.
            choice.fill(-1)
            max_slice.fill(-1)
            self._decide(alive, choice, max_slice)
            self._decisions[alive] += 1
            if slow_path:
                for bi in alive_idx:
                    run = self._runs[int(bi)]
                    if run.observers:
                        c = int(choice[bi])
                        name = None if c < 0 else self._names[c]
                        for observer in run.observers:
                            observer.on_decision(int(self._now[bi]), name)

            # Step 3: execute one slice per live run.
            nearest = np.minimum(self._next_repl.min(axis=1), self._arr_peek)
            end = nearest.copy()
            bounded = max_slice >= 0
            np.minimum(
                end,
                self._now + np.maximum(max_slice, 1),
                out=end,
                where=bounded,
            )
            chosen = choice >= 0
            cols = np.where(chosen, choice, 0)
            rem_c = self._rem[rows_all, cols]
            has_job = self._nready[rows_all, cols] > 0
            normal = chosen & has_job & (rem_c > 0)
            drain = chosen & ~has_job & self._periodic[cols] & (rem_c > 0)
            np.minimum(end, self._now + rem_c, out=end, where=normal | drain)
            np.minimum(
                end,
                self._now + self._head_rem[rows_all, cols],
                out=end,
                where=normal,
            )
            np.minimum(end, t_end, out=end)
            duration = end - self._now

            exec_mask = (normal | drain) & alive
            if exec_mask.any():
                r = np.nonzero(exec_mask)[0]
                c = choice[r]
                self._rem[r, c] -= duration[r]
                nm = normal & alive
                if nm.any():
                    r = np.nonzero(nm)[0]
                    c = choice[r]
                    self._head_rem[r, c] -= duration[r]
                    fresh = self._head_started[r, c] < 0
                    self._head_started[r[fresh], c[fresh]] = self._now[r[fresh]]

            key = np.where((normal | drain), choice, -1)
            self._switches[alive & (key != self._last_key) & (self._last_key != -2)] += 1
            self._last_key[alive] = key[alive]

            if slow_path:
                self._emit_segments(
                    alive_idx, choice, normal, drain, end, duration, obs_on
                )

            self._now[alive] = end[alive]

            # Completions: head jobs that just ran out of demand.
            done = normal & alive & (self._head_rem[rows_all, cols] == 0)
            if done.any():
                for bi in np.nonzero(done)[0]:
                    self._complete_head(int(bi), int(choice[bi]))

        return [self._account(bi) for bi in range(b)]

    def _emit_segments(
        self,
        alive_idx: np.ndarray,
        choice: np.ndarray,
        normal: np.ndarray,
        drain: np.ndarray,
        end: np.ndarray,
        duration: np.ndarray,
        obs_on: bool,
    ) -> None:
        """The scalar ``_emit_segment`` per live run (observers/obs only)."""
        for bi in alive_idx:
            b = int(bi)
            run = self._runs[b]
            dur = int(duration[b])
            if normal[b] or drain[b]:
                rank = int(choice[b])
                partition = self._names[rank]
                task = run.ready[rank][0].task.name if normal[b] else None
            else:
                partition = None
                task = None
            if obs_on:
                run.m_segments.inc()
                if partition is None:
                    run.m_idle_us.inc(dur)
                else:
                    run.m_busy_us.inc(dur)
            if run.observers:
                start = int(self._now[b])
                for observer in run.observers:
                    observer.on_segment(start, start + dur, partition, task)

    def _complete_head(self, b: int, rank: int) -> None:
        run = self._runs[b]
        lst = run.ready[rank]
        job = lst.pop(0)
        job.remaining = 0
        job.started_at = int(self._head_started[b, rank])
        job.finished_at = int(self._now[b])
        self._sync_head(b, rank)
        if job.finished_at - job.arrival > job.task.deadline:
            self._misses[b] += 1
        if run.observers:
            record = JobRecord(
                task=job.task.name,
                partition=job.partition,
                arrival=job.arrival,
                started_at=job.started_at,
                finished_at=job.finished_at,
                demand=job.demand,
            )
            for observer in run.observers:
                observer.on_job_complete(record)

    def _account(self, b: int) -> SimulationResult:
        run = self._runs[b]
        result = SimulationResult(
            end_time=int(self._now[b]),
            decisions=int(self._decisions[b]),
            switches=int(self._switches[b]),
            deadline_misses=int(self._misses[b]),
        )
        metrics = run.obs.registry.snapshot()
        if run.injector is not None:
            metrics.update(run.injector.metrics())
        result.metrics = metrics
        if _events.EVENTS.active:
            _events.emit(
                "engine.run",
                label=run.obs.label,
                backend="batch",
                end_time=result.end_time,
                decisions=result.decisions,
                deadline_misses=result.deadline_misses,
            )
        return result


def run_specs_batched(
    specs: Sequence[RunSpec],
    observers: Optional[Sequence[Sequence]] = None,
) -> List[SimulationResult]:
    """Run ``specs`` (one shared system + horizon) on the batch engine.

    Every spec must carry the same, non-None ``horizon``; results come back
    in spec order.
    """
    horizons = {spec.horizon for spec in specs}
    if len(horizons) != 1 or None in horizons:
        raise ValueError(
            f"run_specs_batched needs one shared horizon, got {sorted(map(str, horizons))}"
        )
    (horizon,) = horizons
    return BatchSimulator(specs, observers=observers).run(horizon)
