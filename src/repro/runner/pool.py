"""Campaign execution: one supervisor loop, with cache and retries.

:func:`run_campaign` is the single entry point. It

1. resolves every cell against the result cache (cached cells never touch a
   worker);
2. executes the misses in one supervisor loop — on an in-process executor
   when ``jobs=1``, else on a ``ProcessPoolExecutor`` whose submission
   window is bounded by ``jobs`` so per-attempt timeouts measure
   *execution* time, not queue time;
3. retries failed attempts with exponential backoff, kills and rebuilds the
   pool on per-task timeout or worker death, and **degrades gracefully to
   in-process execution** once the pool has been rebuilt too many times;
4. merges results **in spec order** — never completion order — so
   ``jobs=N`` and ``jobs=1`` produce identical result mappings.

Each cell fact (scheduled, cached, started, computed, retried, failed,
timed out) is stated once, through ``_CampaignRunner.emit``, which writes
it to the journal, the telemetry and the event log.

Cells are shipped to workers as ``(task_path, params)`` pairs — no closures
cross the process boundary — and results flow back as JSON-serializable
values, which is also what the cache persists.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

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
    STARTED,
    TIMED_OUT,
    CampaignTelemetry,
    CellEvent,
    default_listeners,
    register,
)

#: Poll interval of the supervisor loop (seconds). Bounds how late a
#: per-task timeout can fire.
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
    grouped, in chunks of :data:`BATCH_GROUP_CAP`, and only while neither
    the obs gate nor a trace capture is on — per-run instrumentation
    (engine counters, decide histograms, run-log rollups) is per-cell by
    contract and must not be pooled across a group, and the batch engine
    registers no runs with a capture. Everything else passes through
    untouched. This is the one entry to the batch engine.
    """
    if len(pending) < 2:
        return list(pending)
    import repro.obs as _obs

    if _obs.GATE.enabled or _obs.trace_capture() is not None:
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
    neither the obs gate nor a trace capture is on. That engine is
    bit-identical to the scalar one, and every store write, journal record
    and telemetry event still happens per cell, so grouping never changes
    what a campaign records.

    Args:
        spec: The campaign to run.
        jobs: Worker processes; ``1`` runs in-process, one cell at a time.
        cache: ``None`` (no caching), a store URL or directory path
            (``"json:.repro_cache"``, ``"sqlite:results.db"``, bare path =
            JSON), or a :class:`~repro.store.ResultStore`. Hits skip
            execution entirely.
        timeout: Per-attempt wall-clock limit in seconds (pool workers
            only — a timed-out worker is killed and the pool rebuilt;
            in-process attempts cannot be preempted and run to completion).
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
            deaths) before degrading to in-process execution.
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
    pending: List[_Attempt] = []
    for cell in spec:
        attempt = _Attempt(cell, cell.content_hash(salt))
        value = MISS if store is None else store.get(attempt.content_hash)
        if value is MISS:
            pending.append(attempt)
            continue
        outcomes[cell.key] = CellOutcome(cell.key, value=value, cached=True)
        if prior is not None and attempt.content_hash in prior.completed:
            # This hit is a cell an interrupted earlier generation of *this*
            # campaign completed — a resume, not merely a warm cache shared
            # with some other campaign.
            tele.resumed += 1
        runner.emit(CACHED, attempt)

    if log is not None:
        log.begin(spec.name, spec.spec_hash(salt), len(spec), salt)
    for attempt in pending:
        runner.emit(SCHEDULED, attempt)
    try:
        if pending:
            backend = cluster_backend()
            if backend is not None:
                # Cluster path: ship ungrouped attempts — each worker agent
                # re-enters run_campaign for its lease, so batch grouping
                # happens worker-side where the cells actually execute.
                backend.execute(runner, pending)
            else:
                runner.run(_group_pending(pending), jobs)
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


class _InlineExecutor:
    """What ``jobs=1`` and a degraded pool run on: each call runs at submit,
    in this process, into a finished future. ``KeyboardInterrupt`` and
    ``SystemExit`` propagate."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — the supervisor settles it
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


#: Cell fact -> the journal record that states it.
_JOURNAL_RECORDS = {SCHEDULED: "submitted", COMPUTED: "completed", FAILED: "failed"}

#: Cell fact -> the event-log record that states it, and its fields beyond
#: ``cell``.
_EVENT_RECORDS = {
    CACHED: ("cell.cached", ()),
    STARTED: ("cell.start", ("attempt",)),
    COMPUTED: ("cell.complete", ("attempt", "wall_s", "worker")),
    RETRIED: ("cell.retry", ("attempt", "error")),
    FAILED: ("cell.failed", ("attempt", "error")),
    TIMED_OUT: ("cell.timeout", ("attempt",)),
}


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

    def emit(self, kind: str, attempt: _Attempt, **fields: Any) -> None:
        """State one cell fact once, to every sink that records it: the
        journal, the telemetry (and its listeners), the event log."""
        key = attempt.cell.key
        if self.journal is not None and kind in _JOURNAL_RECORDS:
            error = (fields["error"],) if kind == FAILED else ()
            record = getattr(self.journal, _JOURNAL_RECORDS[kind])
            record(attempt.content_hash, key, *error)
        event = CellEvent(kind, key, attempt=attempt.attempt, **fields)
        self.telemetry.emit(event)
        if EVENTS.active and kind in _EVENT_RECORDS:
            name, names = _EVENT_RECORDS[kind]
            values = {
                "attempt": event.attempt,
                "wall_s": round(event.wall, 6),
                "worker": event.worker,
                "error": event.error,
            }
            emit_event(name, cell=key, **{field: values[field] for field in names})

    # -- terminal transitions ---------------------------------------------

    def _complete(self, attempt: _Attempt, payload: Dict[str, Any]) -> None:
        cell = attempt.cell
        self.outcomes[cell.key] = CellOutcome(
            key=cell.key,
            value=payload["value"],
            attempts=attempt.attempt,
            wall=payload["wall"],
            worker=payload["worker"],
        )
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
        # Strictly after the store write: the journal may under-report
        # completions (a crash between the two recomputes one cell) but
        # must never claim a value the store does not hold.
        self.emit(
            COMPUTED,
            attempt,
            wall=payload["wall"],
            worker=payload["worker"],
            obs=payload.get("obs"),
        )
        export_tick()

    def _retry_or_fail(self, attempt: _Attempt, error: str) -> Optional[_Attempt]:
        """Return the follow-up attempt, or record a terminal failure."""
        if attempt.attempt <= self.retries:
            self.emit(RETRIED, attempt, error=error)
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
        self.emit(FAILED, attempt, error=error)
        return None

    def _settle(
        self,
        item: Union[_Attempt, _GroupAttempt],
        future: Optional[Future] = None,
        error: str = "",
        reason: str = "group_error",
    ) -> List[_Attempt]:
        """Complete ``item`` from its finished ``future``, or charge it the
        future's exception or ``error``; returns the attempts to requeue.

        A charged single retries or fails. A charged group, or one whose
        payload does not line up with its members, dissolves into its
        members *unbumped*: the batch path has no retry accounting, so each
        member's first single attempt is still its attempt #1. The gated
        ``pool.batch_fallback`` counter and its per-``reason`` twin let
        ``repro stats`` say why the batch engine was bypassed.
        """
        payload = None
        if future is not None:
            exc = future.exception()
            if exc is None:
                payload = future.result()
            else:
                error = f"{type(exc).__name__}: {exc}"
        if isinstance(item, _GroupAttempt):
            if payload is not None:
                results = payload.get("value", {}).get("results")
                if isinstance(results, list) and len(results) == len(item.members):
                    share = payload["wall"] / len(item.members)
                    for member, value in zip(item.members, results):
                        self._complete(
                            member,
                            {"value": value, "wall": share, "worker": payload["worker"]},
                        )
                    return []
                reason = "payload_mismatch"
            POOL_METRICS.counter("pool.batch_fallback").inc()
            POOL_METRICS.counter(f"pool.batch_fallback.{reason}").inc()
            if EVENTS.active:
                emit_event("batch.dissolve", size=len(item.members), reason=reason)
            return list(item.members)
        if payload is not None:
            self._complete(item, payload)
            return []
        follow_up = self._retry_or_fail(item, error)
        return [] if follow_up is None else [follow_up]

    # -- the supervisor loop -----------------------------------------------

    def run(self, pending: Sequence[Union[_Attempt, _GroupAttempt]], jobs: int) -> None:
        """Drive ``pending`` to terminal outcomes on at most ``jobs`` workers.

        ``jobs=1`` runs on an in-process executor; so does a pool that has
        used up ``max_pool_rebuilds``. At most ``jobs`` attempts are in
        flight, so a submitted attempt starts (almost) immediately and its
        timeout clock measures execution, not queueing.
        """
        queue: List[Union[_Attempt, _GroupAttempt]] = list(pending)
        inflight: Dict[Future, Tuple[Union[_Attempt, _GroupAttempt], float]] = {}
        rebuilds = 0
        executor = self._new_executor(jobs)
        try:
            while queue or inflight:
                now = time.monotonic()
                index = 0
                while index < len(queue) and len(inflight) < jobs:
                    item = queue[index]
                    if item.not_before > now:
                        index += 1
                        continue
                    queue.pop(index)
                    if isinstance(item, _GroupAttempt):
                        members, call = item.members, (_BATCH_TASK, item.params())
                    else:
                        members, call = [item], (item.cell.task, dict(item.cell.params))
                    for member in members:
                        self.emit(STARTED, member)
                    future = executor.submit(_invoke_cell, *call)
                    limit = math.inf if self.timeout is None else self.timeout * len(members)
                    inflight[future] = (item, time.monotonic() + limit)
                if not inflight:
                    # Everything is backing off; nothing can happen until
                    # the earliest gate opens.
                    time.sleep(min(item.not_before for item in queue) - now)
                    continue

                wait(list(inflight), timeout=_TICK, return_when=FIRST_COMPLETED)
                now = time.monotonic()
                finished = [future for future in inflight if future.done()]
                died = any(isinstance(f.exception(), BrokenProcessPool) for f in finished)
                # A stuck worker cannot be preempted through the executor
                # API: a timeout, like a dead worker, costs the whole pool.
                expired = {
                    future
                    for future, (_, deadline) in inflight.items()
                    if now > deadline and not future.done()
                }
                if not (died or expired):
                    for future in finished:
                        queue.extend(self._settle(inflight.pop(future)[0], future))
                    continue

                # Kill, settle and rebuild. Every result already in is kept.
                # When the pool died, any unfinished attempt may have killed
                # it and is charged; otherwise only the expired ones are, and
                # innocent bystanders are requeued unbumped.
                if died:
                    error, reason = "worker died (BrokenProcessPool)", "worker_died"
                else:
                    error, reason = f"timeout after {self.timeout:.3g}s", "timeout"
                for future, (item, _) in inflight.items():
                    if future.done() and not isinstance(future.exception(), BrokenProcessPool):
                        queue.extend(self._settle(item, future))
                    elif died or future in expired:
                        if not died and isinstance(item, _Attempt):
                            self.emit(TIMED_OUT, item)
                        queue.extend(self._settle(item, error=error, reason=reason))
                    else:
                        queue.append(item)
                inflight.clear()
                _kill_executor(executor)
                rebuilds += 1
                degraded = rebuilds > self.max_pool_rebuilds
                if degraded:
                    jobs = 1
                if EVENTS.active:
                    emit_event(
                        "pool.degraded" if degraded else "pool.rebuild", rebuilds=rebuilds
                    )
                executor = self._new_executor(jobs)
        finally:
            if inflight or queue:
                _kill_executor(executor)  # abnormal exit: reclaim workers
            else:
                executor.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _new_executor(jobs: int) -> Union[_InlineExecutor, ProcessPoolExecutor]:
        if jobs == 1:
            return _InlineExecutor()
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
