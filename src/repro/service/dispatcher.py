"""The campaign dispatcher: many clients, one worker pool.

:class:`Dispatcher` glues the pieces of the service together:

- **submit** validates a campaign request (target, scale, seed, store URL,
  fault plan) and appends it to the :class:`~repro.service.queue.SubmissionQueue`;
- **drain** claims requests strictly FIFO and executes each through this
  process's worker pool (``--jobs``), with a campaign journal under the
  service root so a killed drainer resumes instead of recomputing;
- **status** folds the queue directories and the drainer's live status
  files into one JSON-friendly report, including per-campaign progress
  (done/total cells) and an ETA extrapolated from the campaign's own
  telemetry throughput.

Execution reuses the CLI end to end: a request is rendered back into a
``campaign <target> ...`` argv (:meth:`Dispatcher.campaign_argv`), parsed
by the real parser, and run by the runner that parser selects — so
anything expressible as ``python -m repro campaign <target> ...`` is
submittable, and the service can never drift from the CLI. (The import is
lazy; the CLI imports this package for its ``service`` verbs.)
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.events import EVENTS, bound_context
from repro.obs.events import emit as emit_event
from repro.obs.export import export_tick
from repro.service.journal import CampaignJournal  # noqa: F401 — re-exported
from repro.service.queue import DEFAULT_SERVICE_ROOT, SubmissionQueue, Ticket

#: Request fields a submission may carry (anything else is rejected so typos
#: fail at submit time, not in a drainer three hours later).
REQUEST_FIELDS = frozenset(
    {"target", "scale", "seed", "store", "no_cache", "faults", "submitted_at", "client"}
)

#: Cap on the campaign output text archived in the done/ record.
_OUTPUT_LIMIT = 4000

#: Throttle for live status rewrites (seconds).
_STATUS_INTERVAL = 0.2


def _campaign_targets() -> Dict[str, Any]:
    from repro.cli import CAMPAIGN_TARGETS  # lazy: the CLI imports this package

    return CAMPAIGN_TARGETS


@dataclass
class DrainReport:
    """What one :meth:`Dispatcher.drain` call accomplished."""

    executed: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.get("ok") for item in self.executed)


class _StatusListener:
    """A telemetry listener streaming per-campaign progress + ETA into the
    claimed ticket's status file (throttled; final event always written)."""

    def __init__(self, queue: SubmissionQueue, ticket: Ticket):
        self.queue = queue
        self.ticket = ticket
        self.started = time.time()
        self._last_write = 0.0

    def __call__(self, telemetry, event) -> None:
        now = time.time()
        final = telemetry.done >= telemetry.total
        if not final and now - self._last_write < _STATUS_INTERVAL:
            return
        self._last_write = now
        elapsed = now - self.started
        remaining = max(0, telemetry.total - telemetry.done)
        rate = telemetry.done / elapsed if elapsed > 0 and telemetry.done else None
        self.queue.write_status(
            self.ticket,
            {
                "state": "running",
                "campaign": telemetry.campaign,
                "total": telemetry.total,
                "done": telemetry.done,
                "pending_cells": remaining,
                "cached": telemetry.cached,
                "computed": telemetry.computed,
                "failed": telemetry.failed,
                "elapsed_s": round(elapsed, 3),
                "eta_s": round(remaining / rate, 3) if rate else None,
            },
        )


class Dispatcher:
    """Submit campaigns to — and drain them from — one service root."""

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_SERVICE_ROOT,
        jobs: int = 1,
        store: Optional[str] = None,
        cluster: Optional[Any] = None,
    ):
        self.root = Path(root)
        self.queue = SubmissionQueue(self.root)
        self.jobs = max(1, int(jobs))
        #: Store URL campaigns run against when the request names none.
        self.store = store
        #: Optional :class:`repro.cluster.ClusterCoordinator`: when set,
        #: every campaign this dispatcher executes is leased to the
        #: cluster's worker fleet instead of this process's pool (the
        #: ``repro cluster serve`` path). Journal, store, and telemetry
        #: stay right here — only the cell execution moves.
        self.cluster = cluster
        #: Journal directory shared by every campaign this service runs.
        self.journal_root = self.root / "journals"

    # -- client side -------------------------------------------------------

    def submit(
        self,
        target: str,
        scale: str = "default",
        seed: int = 3,
        store: Optional[str] = None,
        faults: Optional[str] = None,
        no_cache: bool = False,
        client: str = "",
    ) -> Ticket:
        """Validate and enqueue one campaign request; returns its ticket."""
        targets = _campaign_targets()
        if target not in targets:
            raise ValueError(
                f"unknown campaign target {target!r}; "
                f"choose from {', '.join(sorted(targets))}"
            )
        if scale not in ("quick", "default", "full"):
            raise ValueError(f"scale must be quick/default/full, got {scale!r}")
        request: Dict[str, Any] = {
            "target": target,
            "scale": scale,
            "seed": int(seed),
            "no_cache": bool(no_cache),
        }
        if store:
            request["store"] = store
        if faults:
            request["faults"] = faults
        if client:
            request["client"] = client
        return self.queue.submit(request)

    def status(self) -> Dict[str, Any]:
        """One report over the whole service root (see module docstring)."""

        def summarize(ticket: Ticket) -> Dict[str, Any]:
            request = ticket.request
            return {
                "ticket": ticket.number,
                "target": request.get("target"),
                "scale": request.get("scale"),
                "seed": request.get("seed"),
                "client": request.get("client") or None,
            }

        report: Dict[str, Any] = {"root": str(self.root)}
        report["pending"] = [summarize(t) for t in self.queue.pending()]
        active = []
        for ticket in self.queue.active():
            item = summarize(ticket)
            progress = self.queue.read_status(ticket.number)
            if progress:
                item["progress"] = progress
            active.append(item)
        report["active"] = active
        done = []
        for ticket in self.queue.done():
            item = summarize(ticket)
            outcome = ticket.request.get("outcome") or {}
            item["ok"] = outcome.get("ok")
            item["elapsed_s"] = outcome.get("elapsed_s")
            done.append(item)
        report["done"] = done
        return report

    # -- drainer side ------------------------------------------------------

    def recover(self) -> int:
        """Requeue tickets stranded in ``active/`` by a crashed drainer.

        Safe to call before :meth:`drain`: campaign journals plus the
        content-addressed store mean a requeued campaign recomputes only
        the cells its killed drainer never finished.
        """
        import os

        requeued = 0
        for ticket in self.queue.active():
            source = self.queue.active_dir / ticket.name
            target = self.queue.pending_dir / ticket.name
            try:
                os.rename(source, target)
            except OSError:
                continue
            try:
                os.unlink(self.queue.active_dir / f"{ticket.number:08d}.status.json")
            except OSError:
                pass
            if EVENTS.active:
                emit_event("service.recover", ticket=ticket.number)
            requeued += 1
        return requeued

    def campaign_argv(self, request: Dict[str, Any]) -> List[str]:
        """The ``python -m repro`` argv that runs ``request`` on this drainer."""
        argv = ["campaign", str(request.get("target", ""))]
        argv += ["--seed", str(request.get("seed", 3))]
        argv += ["--jobs", str(self.jobs)]
        # Always rendered, so argparse rejects a scale it does not know.
        argv += ["--scale", str(request.get("scale", "default"))]
        store = request.get("store") or self.store
        if request.get("no_cache"):
            argv += ["--no-cache"]
        elif store:
            argv += ["--store", str(store)]
        argv += ["--resume", "--journal-dir", str(self.journal_root)]
        if request.get("faults"):
            argv += ["--faults", str(request["faults"])]
        return argv

    def execute(self, ticket: Ticket) -> Dict[str, Any]:
        """Run one claimed request to a terminal outcome (never raises for
        campaign failures — the outcome records them)."""
        from repro.cli import build_parser  # lazy (see module docstring)
        from repro.runner import (
            add_default_listener,
            drain_session,
            remove_default_listener,
            session_stats,
        )

        request = ticket.request
        started = time.time()
        listener = _StatusListener(self.queue, ticket)
        add_default_listener(listener)
        drain_session()  # scope session_stats() to this request's campaigns
        outcome: Dict[str, Any]
        with bound_context(ticket=ticket.number):
            if EVENTS.active:
                emit_event("service.execute", target=request.get("target", ""))
            try:
                unknown = set(request) - REQUEST_FIELDS
                if unknown:
                    raise ValueError(
                        f"request carries unknown fields: {sorted(unknown)}"
                    )
                target = request.get("target")
                if target not in _campaign_targets():
                    raise ValueError(f"unknown campaign target {target!r}")
                args = build_parser().parse_args(self.campaign_argv(request))
                engine = (
                    self.cluster.installed()
                    if self.cluster is not None
                    else contextlib.nullcontext()
                )
                with engine:
                    output = args.run(args)
                outcome = {
                    "ok": True,
                    "output": output[:_OUTPUT_LIMIT],
                    "telemetry": [t.snapshot() for t in session_stats()],
                }
            except BaseException as exc:  # noqa: BLE001 — outcome must be terminal
                if isinstance(exc, KeyboardInterrupt):
                    raise
                # SystemExit included: a malformed hand-crafted request must
                # fail its own ticket, not take the whole drainer down.
                outcome = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "trace": traceback.format_exc()[-_OUTPUT_LIMIT:],
                }
            finally:
                remove_default_listener(listener)
                drain_session()
            outcome["elapsed_s"] = round(time.time() - started, 3)
            outcome["jobs"] = self.jobs
            self.queue.complete(ticket, outcome)
            if EVENTS.active:
                emit_event(
                    "service.complete",
                    ok=bool(outcome.get("ok")),
                    elapsed_s=outcome["elapsed_s"],
                )
        export_tick()
        return outcome

    def drain(self, max_requests: Optional[int] = None) -> DrainReport:
        """Claim and execute pending requests FIFO until the queue is empty
        (or ``max_requests`` have run)."""
        report = DrainReport()
        if EVENTS.active:
            emit_event("service.drain", root=str(self.root), jobs=self.jobs)
        while max_requests is None or len(report.executed) < max_requests:
            ticket = self.queue.claim_next()
            if ticket is None:
                break
            outcome = self.execute(ticket)
            report.executed.append(
                {
                    "ticket": ticket.number,
                    "target": ticket.request.get("target"),
                    "ok": outcome.get("ok", False),
                    "elapsed_s": outcome.get("elapsed_s"),
                    "error": outcome.get("error"),
                }
            )
        if EVENTS.active:
            emit_event("service.drained", executed=len(report.executed))
        return report
