"""Campaign execution: serial loop or process pool, with cache and retries.

:func:`run_campaign` is the single entry point. It

1. resolves every cell against the result cache (cached cells never touch a
   worker);
2. executes the misses — serially when ``jobs=1``, else on a
   ``ProcessPoolExecutor`` whose submission window is bounded by ``jobs`` so
   per-attempt timeouts measure *execution* time, not queue time;
3. retries failed attempts with exponential backoff, kills and rebuilds the
   pool on per-task timeout or worker death, and **degrades gracefully to
   serial execution** once the pool has been rebuilt too many times;
4. merges results **in spec order** — never completion order — so
   ``jobs=N`` and ``jobs=1`` produce identical result mappings.

Cells are shipped to workers as ``(task_path, params)`` pairs — no closures
cross the process boundary — and results flow back as JSON-serializable
values, which is also what the cache persists.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.obs.events import EVENTS
from repro.obs.events import emit as emit_event
from repro.obs.export import export_tick
from repro.obs.registry import MetricsRegistry, register_process_registry, register_reset
from repro.runner.cache import MISS, ResultStore, as_cache
from repro.service.journal import CampaignJournal, as_journal
from repro.runner.spec import CampaignCell, CampaignSpec, resolve_task
from repro.runner.telemetry import (
    CACHED,
    COMPUTED,
    FAILED,
    RETRIED,
    SCHEDULED,
    CampaignTelemetry,
    CellEvent,
    default_listeners,
    register,
)

#: Poll interval of the parallel supervisor loop (seconds). Bounds how late
#: a per-task timeout can fire.
_TICK = 0.05

#: The one task the pool may group through the batch engine, and the task
#: grouped attempts are shipped as.
_SIM_TASK = "repro.runner.tasks:simulate_cell"
_BATCH_TASK = "repro.runner.tasks:simulate_batch"

#: Cells per grouped attempt. Batch-engine throughput saturates around this
#: size (see benchmarks/BENCH_baseline.json); bigger groups only widen the
#: blast radius of one failure or timeout.
BATCH_GROUP_CAP = 256

#: Process-wide pool telemetry. ``pool.shutdown_error`` counts exceptions
#: suppressed while force-killing a hung executor (gated, like every
#: counter, on the obs gate) — suppression is deliberate there, but it must
#: never be silent.
POOL_METRICS = register_process_registry(MetricsRegistry("pool"))

#: The installed cluster execution backend, or None for local execution.
#: Anything with an ``execute(runner, pending)`` method qualifies; in
#: practice it is a :class:`repro.cluster.ClusterCoordinator` installed via
#: its ``installed()`` context manager. Ambient state (not a parameter)
#: on purpose: the service dispatcher re-enters ``run_campaign`` through
#: the CLI target functions, which know nothing about clusters. Thread-local
#: rather than module-global so an in-process :class:`WorkerAgent` (tests,
#: single-host smoke) executing its lease on another thread falls through
#: to local execution instead of recursing into the coordinator.
_CLUSTER_STATE = threading.local()


def set_cluster_backend(backend: Optional[Any]) -> Optional[Any]:
    """Install ``backend`` as this thread's campaign execution engine;
    returns the previous one so callers can restore it (see
    ``ClusterCoordinator.installed``)."""
    previous = getattr(_CLUSTER_STATE, "backend", None)
    _CLUSTER_STATE.backend = backend
    return previous


def cluster_backend() -> Optional[Any]:
    """The cluster backend installed on this thread, or None."""
    return getattr(_CLUSTER_STATE, "backend", None)


register_reset(lambda: set_cluster_backend(None))


def _invoke_cell(task: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry: resolve the task function and run one cell.

    When :mod:`repro.obs` is enabled (workers fork after the CLI enables
    it, so the gate is inherited), the registries of every simulation the
    cell ran are merged into ``payload["obs"]`` — the per-cell snapshot
    :class:`~repro.runner.telemetry.CampaignTelemetry` aggregates across
    cells (counters sum, histograms merge bucket-wise), which is what keeps
    campaign rollups exact under ``--jobs N``.

    A trace capture started by the parent (``--trace-out``) is inherited
    by forked workers, but worker-side registrations can never reach the
    parent's trace file: they are dropped here, counted by the gated
    ``trace.worker_runs_dropped`` counter shipped back in the snapshot.
    """
    import repro.obs as _obs

    capture = _obs.trace_capture()
    foreign_capture = capture is not None and capture.owner_pid != os.getpid()
    if foreign_capture:
        capture.runs.clear()  # the parent's pre-fork registrations, inherited
    start = time.perf_counter()
    fn = resolve_task(task)
    _obs.drain_run_log()  # scope the rollups to this cell's simulations
    value = fn(params)
    runs = _obs.drain_run_log()
    snapshot = _obs.runs_snapshot(runs)
    if foreign_capture and capture.runs:
        dropped = len(capture.runs)
        capture.runs.clear()
        if _obs.GATE.enabled:
            snapshot = dict(snapshot or {})
            snapshot["trace.worker_runs_dropped"] = (
                snapshot.get("trace.worker_runs_dropped", 0) + dropped
            )
    export_tick()  # per-worker metrics snapshot when --metrics-dir is armed
    return {
        "value": value,
        "wall": time.perf_counter() - start,
        "worker": f"pid-{os.getpid()}",
        "obs": snapshot,
    }


@dataclass
class CellOutcome:
    """Terminal state of one cell after caching/execution/retries."""

    key: str
    value: Any = None
    cached: bool = False
    attempts: int = 0
    wall: float = 0.0
    worker: str = ""
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignResult:
    """Merged results of one campaign run, in spec order."""

    spec: CampaignSpec
    results: Dict[str, Any]
    outcomes: Dict[str, CellOutcome]
    telemetry: CampaignTelemetry

    def value(self, key: str) -> Any:
        return self.results[key]

    @property
    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes.values() if not o.ok]


class CampaignError(RuntimeError):
    """Raised when cells exhaust their retries and ``on_failure='raise'``."""

    def __init__(self, campaign: str, failures: Sequence[CellOutcome]):
        self.failures = list(failures)
        detail = "; ".join(f"{o.key}: {o.error}" for o in self.failures[:5])
        more = "" if len(self.failures) <= 5 else f" (+{len(self.failures) - 5} more)"
        super().__init__(
            f"campaign {campaign!r}: {len(self.failures)} cell(s) failed — {detail}{more}"
        )


@dataclass
class _Attempt:
    """One scheduled execution of one cell."""

    cell: CampaignCell
    content_hash: str
    attempt: int = 1
    not_before: float = 0.0  # monotonic gate implementing backoff


@dataclass
class _GroupAttempt:
    """Many first-attempt ``simulate_cell`` cells, shipped as one
    ``simulate_batch`` call through the batch engine.

    Every observable per-cell effect — store write, journal completion,
    telemetry event, outcome — still happens per member, keyed by the
    member's own content hash, so grouping never changes what a campaign
    records. Any group-level failure dissolves the group: its members are
    requeued as plain single attempts, *unbumped* (the singles path owns
    all retry accounting), and are never regrouped.
    """

    members: List[_Attempt]

    @property
    def not_before(self) -> float:
        return max(m.not_before for m in self.members)

    def params(self) -> Dict[str, Any]:
        return {"runspecs": [dict(m.cell.params)["runspec"] for m in self.members]}


def _group_pending(pending: List[_Attempt]) -> List[Union[_Attempt, _GroupAttempt]]:
    """Partition ``pending`` into batchable groups and single attempts.

    Only ``simulate_cell`` attempts whose specs share one
    :func:`repro.sim.batch.batch_group_key` (system shape + horizon) are
    grouped, in chunks of :data:`BATCH_GROUP_CAP`, and only while the obs
    gate is disabled — per-run instrumentation (engine counters, decide
    histograms, run-log rollups) is per-cell by contract and must not be
    pooled across a group. Everything else passes through untouched.
    This is the one entry to the batch engine.
    """
    if len(pending) < 2:
        return list(pending)
    import repro.obs as _obs

    if _obs.GATE.enabled:
        # Grouping is skipped wholesale while instrumented; the reasoned
        # counter keeps `repro stats` able to say why no groups formed.
        POOL_METRICS.counter("pool.batch_fallback.obs_enabled").inc()
        return list(pending)
    from repro.sim.batch import batch_compatible, batch_group_key
    from repro.sim.config import RunSpec

    ordered: List[Union[_Attempt, _GroupAttempt]] = []
    buckets: Dict[Any, List[_Attempt]] = {}
    for attempt in pending:
        cell = attempt.cell
        doc = cell.params.get("runspec") if isinstance(cell.params, Mapping) else None
        if cell.task != _SIM_TASK or not isinstance(doc, Mapping):
            ordered.append(attempt)
            continue
        try:
            spec = RunSpec.from_dict(doc)
        except Exception:  # noqa: BLE001 — let the single path surface the error
            ordered.append(attempt)
            continue
        if spec.horizon is None or batch_compatible(spec) is not None:
            ordered.append(attempt)
            continue
        bucket = buckets.setdefault(batch_group_key(spec), [])
        if not bucket:
            ordered.append(bucket)  # placeholder; expanded below
        bucket.append(attempt)

    out: List[Union[_Attempt, _GroupAttempt]] = []
    for entry in ordered:
        if isinstance(entry, list):  # a bucket placeholder, in first-seen order
            for start in range(0, len(entry), BATCH_GROUP_CAP):
                chunk = entry[start : start + BATCH_GROUP_CAP]
                if len(chunk) == 1:
                    out.append(chunk[0])
                else:
                    out.append(_GroupAttempt(chunk))
                    if EVENTS.active:
                        emit_event("batch.group", size=len(chunk))
        else:
            out.append(entry)
    return out


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache: Union[None, str, ResultStore] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.25,
    telemetry: Optional[CampaignTelemetry] = None,
    listeners: Iterable[Callable[[CampaignTelemetry, CellEvent], None]] = (),
    on_failure: str = "raise",
    max_pool_rebuilds: int = 3,
    journal: Union[None, str, Path, CampaignJournal] = None,
) -> CampaignResult:
    """Execute ``spec`` and return its merged, spec-ordered results.

    Pending ``simulate_cell`` attempts that share a system shape and horizon
    run in groups through the batch engine (:mod:`repro.sim.batch`) while
    the obs gate is disabled. That engine is bit-identical to the scalar
    one, and every store write, journal record and telemetry event still
    happens per cell, so grouping never changes what a campaign records.

    Args:
        spec: The campaign to run.
        jobs: Worker processes; ``1`` runs serially in-process.
        cache: ``None`` (no caching), a store URL or directory path
            (``"json:.repro_cache"``, ``"sqlite:results.db"``, bare path =
            JSON), or a :class:`~repro.store.ResultStore`. Hits skip
            execution entirely.
        timeout: Per-attempt wall-clock limit in seconds (parallel mode
            only — a timed-out worker is killed and the pool rebuilt;
            serial attempts cannot be preempted and run to completion).
        retries: Extra attempts after the first, per cell.
        backoff: Base of the exponential retry delay
            (``backoff * 2**(attempt-1)`` seconds).
        telemetry: Optional pre-built collector (e.g. with listeners
            attached); one is created when omitted.
        listeners: Extra telemetry listeners to attach.
        on_failure: ``"raise"`` (default) raises :class:`CampaignError`
            after all cells have terminated; ``"keep"`` records failures in
            the outcomes and returns normally.
        max_pool_rebuilds: Pool kill/rebuild budget (timeouts + worker
            deaths) before degrading to serial execution.
        journal: ``None`` (no journaling), a directory path (the journal
            file is derived from the campaign's spec hash), or a
            :class:`~repro.service.journal.CampaignJournal`. The journal
            records submitted/completed cell hashes with atomic appends;
            on a re-run after a crash, cells completed by a prior
            generation are counted in ``telemetry.resumed``. Values replay
            from the ``cache`` store, so journaling without a store records
            progress but cannot skip recomputation.
    """
    if on_failure not in ("raise", "keep"):
        raise ValueError(f"on_failure must be 'raise' or 'keep', got {on_failure!r}")
    jobs = max(1, int(jobs))
    store = as_cache(cache)
    tele = telemetry if telemetry is not None else CampaignTelemetry(spec.name)
    tele.campaign = spec.name
    tele.total = len(spec)
    tele.jobs = jobs
    tele.listeners.extend(default_listeners())
    tele.listeners.extend(listeners)

    salt = store.salt if store is not None else ""
    log = as_journal(journal, spec, salt)
    prior = log.replay() if log is not None else None
    if EVENTS.active:
        from repro.obs.events import set_context

        set_context(campaign=spec.name)
        emit_event("campaign.begin", total=len(spec), jobs=jobs)
    outcomes: Dict[str, CellOutcome] = {}
    pending: List[_Attempt] = []
    for cell in spec:
        content_hash = cell.content_hash(salt)
        tele.emit(CellEvent(SCHEDULED, cell.key))
        if store is not None:
            value = store.get(content_hash)
            if value is not MISS:
                outcomes[cell.key] = CellOutcome(cell.key, value=value, cached=True)
                if prior is not None and content_hash in prior.completed:
                    # This hit is a cell an interrupted earlier generation
                    # of *this* campaign completed — a resume, not merely a
                    # warm cache shared with some other campaign.
                    tele.resumed += 1
                tele.emit(CellEvent(CACHED, cell.key))
                if EVENTS.active:
                    emit_event("cell.cached", cell=cell.key)
                continue
        pending.append(_Attempt(cell, content_hash))

    if log is not None:
        log.begin(spec.name, spec.spec_hash(salt), len(spec), salt)
        for attempt in pending:
            log.submitted(attempt.content_hash, attempt.cell.key)

    runner = _CampaignRunner(
        spec=spec,
        store=store,
        telemetry=tele,
        retries=retries,
        backoff=backoff,
        timeout=timeout,
        max_pool_rebuilds=max_pool_rebuilds,
        outcomes=outcomes,
        journal=log,
    )
    try:
        if pending:
            backend = cluster_backend()
            if backend is not None:
                # Cluster path: ship ungrouped attempts — each worker agent
                # re-enters run_campaign for its lease, so batch grouping
                # happens worker-side where the cells actually execute.
                backend.execute(runner, pending)
            else:
                grouped = _group_pending(pending)
                if jobs == 1:
                    runner.run_serial(grouped)
                else:
                    runner.run_parallel(grouped, jobs)
    finally:
        if log is not None and journal is not log:
            log.close()  # close only journals this call opened

    if store is not None:
        tele.cache_hits = store.stats.hits
        tele.cache_misses = store.stats.misses
    tele.finish()
    register(tele)
    if EVENTS.active:
        from repro.obs.events import set_context

        emit_event(
            "campaign.end",
            done=tele.done,
            computed=tele.computed,
            cached=tele.cached,
            failed=tele.failed,
        )
        set_context(campaign=None)
    export_tick()

    results = {
        cell.key: outcomes[cell.key].value for cell in spec if outcomes[cell.key].ok
    }
    result = CampaignResult(spec=spec, results=results, outcomes=outcomes, telemetry=tele)
    if on_failure == "raise" and result.failures:
        raise CampaignError(spec.name, result.failures)
    return result


class _CampaignRunner:
    """Shared state of one :func:`run_campaign` invocation."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[ResultStore],
        telemetry: CampaignTelemetry,
        retries: int,
        backoff: float,
        timeout: Optional[float],
        max_pool_rebuilds: int,
        outcomes: Dict[str, CellOutcome],
        journal: Optional[CampaignJournal] = None,
    ):
        self.spec = spec
        self.store = store
        self.telemetry = telemetry
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.max_pool_rebuilds = max_pool_rebuilds
        self.outcomes = outcomes
        self.journal = journal

    # -- terminal transitions ---------------------------------------------

    def _complete(self, attempt: _Attempt, payload: Dict[str, Any]) -> None:
        cell = attempt.cell
        outcome = CellOutcome(
            key=cell.key,
            value=payload["value"],
            attempts=attempt.attempt,
            wall=payload["wall"],
            worker=payload["worker"],
        )
        self.outcomes[cell.key] = outcome
        if self.store is not None:
            self.store.put(
                attempt.content_hash,
                payload["value"],
                meta={
                    "campaign": self.spec.name,
                    "key": cell.key,
                    "task": cell.task,
                    "wall_s": round(payload["wall"], 6),
                },
            )
        if self.journal is not None:
            # Strictly after the store write: the journal may under-report
            # completions (a crash between the two recomputes one cell) but
            # must never claim a value the store does not hold.
            self.journal.completed(attempt.content_hash, cell.key)
        self.telemetry.emit(
            CellEvent(
                COMPUTED,
                cell.key,
                attempt=attempt.attempt,
                wall=payload["wall"],
                worker=payload["worker"],
                obs=payload.get("obs"),
            )
        )
        if EVENTS.active:
            emit_event(
                "cell.complete",
                cell=cell.key,
                attempt=attempt.attempt,
                wall_s=round(payload["wall"], 6),
                worker=payload["worker"],
            )
        export_tick()

    def _retry_or_fail(self, attempt: _Attempt, error: str) -> Optional[_Attempt]:
        """Return the follow-up attempt, or record a terminal failure."""
        if attempt.attempt <= self.retries:
            self.telemetry.emit(
                CellEvent(RETRIED, attempt.cell.key, attempt=attempt.attempt, error=error)
            )
            if EVENTS.active:
                emit_event(
                    "cell.retry",
                    cell=attempt.cell.key,
                    attempt=attempt.attempt,
                    error=error,
                )
            delay = self.backoff * (2 ** (attempt.attempt - 1))
            return _Attempt(
                attempt.cell,
                attempt.content_hash,
                attempt=attempt.attempt + 1,
                not_before=time.monotonic() + delay,
            )
        self.outcomes[attempt.cell.key] = CellOutcome(
            key=attempt.cell.key, attempts=attempt.attempt, error=error
        )
        if self.journal is not None:
            self.journal.failed(attempt.content_hash, attempt.cell.key, error)
        self.telemetry.emit(
            CellEvent(FAILED, attempt.cell.key, attempt=attempt.attempt, error=error)
        )
        if EVENTS.active:
            emit_event(
                "cell.failed",
                cell=attempt.cell.key,
                attempt=attempt.attempt,
                error=error,
            )
        return None

    def _complete_group(self, group: _GroupAttempt, payload: Dict[str, Any]) -> bool:
        """Fan a group payload out into per-member completions.

        Returns ``False`` (without completing anything) when the payload
        does not line up with the members — the caller then dissolves the
        group, exactly as for a group-level exception.
        """
        results = payload.get("value", {}).get("results")
        if not isinstance(results, list) or len(results) != len(group.members):
            return False
        share = payload["wall"] / len(group.members)
        for member, value in zip(group.members, results):
            self._complete(
                member, {"value": value, "wall": share, "worker": payload["worker"]}
            )
        return True

    @staticmethod
    def _dissolve(group: _GroupAttempt, reason: str = "group_error") -> List[_Attempt]:
        """A failed group's members, requeued as plain single attempts.

        Unbumped on purpose: the batch path has no retry accounting of its
        own, so the first single attempt of each member must still count as
        that cell's attempt #1. The gated counters keep dissolutions
        observable — the plain total plus one reasoned counter
        (``pool.batch_fallback.group_error`` / ``payload_mismatch`` /
        ``worker_died`` / ``timeout``) so ``repro stats`` can say *why*
        the batch engine was bypassed.
        """
        POOL_METRICS.counter("pool.batch_fallback").inc()
        POOL_METRICS.counter(f"pool.batch_fallback.{reason}").inc()
        if EVENTS.active:
            emit_event("batch.dissolve", size=len(group.members), reason=reason)
        return list(group.members)

    # -- serial path -------------------------------------------------------

    def run_serial(self, pending: Sequence[Union[_Attempt, _GroupAttempt]]) -> None:
        queue: List[Union[_Attempt, _GroupAttempt]] = list(pending)
        while queue:
            attempt = queue.pop(0)
            gate = attempt.not_before - time.monotonic()
            if gate > 0:
                time.sleep(gate)
            if isinstance(attempt, _GroupAttempt):
                try:
                    payload = _invoke_cell(_BATCH_TASK, attempt.params())
                except Exception:  # noqa: BLE001 — singles will surface it
                    queue.extend(self._dissolve(attempt, "group_error"))
                else:
                    if not self._complete_group(attempt, payload):
                        queue.extend(self._dissolve(attempt, "payload_mismatch"))
                continue
            if EVENTS.active:
                emit_event("cell.start", cell=attempt.cell.key, attempt=attempt.attempt)
            try:
                payload = _invoke_cell(attempt.cell.task, dict(attempt.cell.params))
            except Exception as exc:  # noqa: BLE001 — any task error is retryable
                follow_up = self._retry_or_fail(attempt, f"{type(exc).__name__}: {exc}")
                if follow_up is not None:
                    queue.append(follow_up)
            else:
                self._complete(attempt, payload)

    # -- parallel path -----------------------------------------------------

    def run_parallel(
        self, pending: Sequence[Union[_Attempt, _GroupAttempt]], jobs: int
    ) -> None:
        queue: List[Union[_Attempt, _GroupAttempt]] = list(pending)
        inflight: Dict[Future, Union[_Attempt, _GroupAttempt]] = {}
        deadlines: Dict[Future, Optional[float]] = {}
        rebuilds = 0
        executor = self._new_executor(jobs)
        try:
            while queue or inflight:
                now = time.monotonic()
                # Fill the submission window: at most ``jobs`` futures in
                # flight, so a submitted attempt starts (almost) immediately
                # and its timeout clock measures execution, not queueing.
                index = 0
                while index < len(queue) and len(inflight) < jobs:
                    attempt = queue[index]
                    if attempt.not_before > now:
                        index += 1
                        continue
                    queue.pop(index)
                    if isinstance(attempt, _GroupAttempt):
                        future = executor.submit(
                            _invoke_cell, _BATCH_TASK, attempt.params()
                        )
                        scale = len(attempt.members)  # one deadline per member
                    else:
                        if EVENTS.active:
                            emit_event(
                                "cell.start",
                                cell=attempt.cell.key,
                                attempt=attempt.attempt,
                            )
                        future = executor.submit(
                            _invoke_cell, attempt.cell.task, dict(attempt.cell.params)
                        )
                        scale = 1
                    inflight[future] = attempt
                    deadlines[future] = None if self.timeout is None else (
                        time.monotonic() + self.timeout * scale
                    )
                if not inflight:
                    time.sleep(_TICK)  # everything is backing off
                    continue

                done, _ = wait(set(inflight), timeout=_TICK, return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    attempt = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        # The pool is dead; every other in-flight future is
                        # doomed too. Any of them may have killed the worker,
                        # so singles get an attempt bump; groups dissolve
                        # into unbumped singles (their members have not had
                        # an individual attempt yet).
                        for doomed in [attempt] + list(inflight.values()):
                            if isinstance(doomed, _GroupAttempt):
                                queue.extend(self._dissolve(doomed, "worker_died"))
                                continue
                            follow_up = self._retry_or_fail(
                                doomed, "worker died (BrokenProcessPool)"
                            )
                            if follow_up is not None:
                                queue.append(follow_up)
                        inflight.clear()
                        deadlines.clear()
                        break
                    except Exception as exc:  # noqa: BLE001
                        if isinstance(attempt, _GroupAttempt):
                            queue.extend(self._dissolve(attempt, "group_error"))
                        else:
                            follow_up = self._retry_or_fail(
                                attempt, f"{type(exc).__name__}: {exc}"
                            )
                            if follow_up is not None:
                                queue.append(follow_up)
                    else:
                        if isinstance(attempt, _GroupAttempt):
                            if not self._complete_group(attempt, payload):
                                queue.extend(self._dissolve(attempt, "payload_mismatch"))
                        else:
                            self._complete(attempt, payload)

                if broken:
                    _kill_executor(executor)
                    rebuilds += 1
                    if rebuilds > self.max_pool_rebuilds:
                        if EVENTS.active:
                            emit_event("pool.degraded", rebuilds=rebuilds)
                        self.run_serial(queue)
                        return
                    if EVENTS.active:
                        emit_event("pool.rebuild", rebuilds=rebuilds)
                    executor = self._new_executor(jobs)
                    continue

                # Per-task timeout sweep: a stuck worker cannot be preempted
                # through the executor API, so kill the whole pool, requeue
                # the innocent in-flight attempts unbumped, and rebuild.
                now = time.monotonic()
                timed_out = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline is not None and now > deadline and not future.done()
                ]
                if timed_out:
                    for future in timed_out:
                        attempt = inflight.pop(future)
                        deadlines.pop(future, None)
                        if isinstance(attempt, _GroupAttempt):
                            queue.extend(self._dissolve(attempt, "timeout"))
                            continue
                        if EVENTS.active:
                            emit_event(
                                "cell.timeout",
                                cell=attempt.cell.key,
                                attempt=attempt.attempt,
                            )
                        follow_up = self._retry_or_fail(
                            attempt, f"timeout after {self.timeout:.3g}s"
                        )
                        if follow_up is not None:
                            queue.append(follow_up)
                    queue.extend(inflight.values())  # innocent bystanders
                    inflight.clear()
                    deadlines.clear()
                    _kill_executor(executor)
                    rebuilds += 1
                    if rebuilds > self.max_pool_rebuilds:
                        if EVENTS.active:
                            emit_event("pool.degraded", rebuilds=rebuilds)
                        self.run_serial(queue)
                        return
                    if EVENTS.active:
                        emit_event("pool.rebuild", rebuilds=rebuilds)
                    executor = self._new_executor(jobs)
        finally:
            if inflight or queue:
                _kill_executor(executor)  # abnormal exit: reclaim workers
            else:
                executor.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _new_executor(jobs: int) -> ProcessPoolExecutor:
        # Prefer fork on POSIX: workers inherit sys.path and imported
        # modules, so dotted-path task resolution works from any entry
        # point (pytest, ``python -m repro``, notebooks).
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork") if "fork" in methods else None
        return ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Terminate worker processes and discard the executor.

    ``ProcessPoolExecutor`` has no public kill switch — ``shutdown`` joins
    workers, which never returns while one is stuck — so this reaches for
    the private process table as the only way to reclaim a hung pool.

    Errors from already-dead workers or a half-torn-down executor are
    expected here and suppressed — but never silently: each one ticks the
    gated ``pool.shutdown_error`` counter. ``KeyboardInterrupt`` and
    ``SystemExit`` always propagate.
    """
    table = dict(getattr(executor, "_processes", None) or {})
    for proc in list(table.values()):
        try:
            proc.terminate()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:  # noqa: BLE001 — already-dead workers are fine
            POOL_METRICS.counter("pool.shutdown_error").inc()
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:  # noqa: BLE001
        POOL_METRICS.counter("pool.shutdown_error").inc()
    for proc in list(table.values()):
        try:
            proc.join(timeout=1.0)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:  # noqa: BLE001
            POOL_METRICS.counter("pool.shutdown_error").inc()
