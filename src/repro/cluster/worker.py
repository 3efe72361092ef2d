"""The cluster worker agent: lease cells, execute them, report results.

:class:`WorkerAgent` is the client half of :mod:`repro.cluster`. One agent
process connects to a coordinator, leases a handful of cells at a time, and
executes each lease through the *existing* campaign pool — ``run_campaign``
with ``cache=None`` (the coordinator owns the store; nothing is persisted
worker-side) and ``jobs=N`` process workers, batch grouping included. The
finished values travel back as wire-serialized
:class:`~repro.store.base.StoreEntry` documents in a single ``result``
frame per lease, so a remote worker never needs the coordinator's
filesystem.

Robustness (the satellite contract):

- **Timeouts everywhere**: connect and per-frame I/O deadlines, so a hung
  coordinator can never wedge the agent.
- **Bounded exponential-backoff reconnect**: connection failures retry at
  0.25 s, 0.5 s, 1 s, ... capped at 5 s per gap, until a configurable
  cumulative offline budget (``reconnect_s``) is exhausted — long enough
  to ride out a coordinator restart (``--resume``), bounded so an
  orphaned agent eventually exits instead of spinning forever.
- **Heartbeats on a dedicated connection**: a daemon thread renews the
  agent's leases every ``lease_s / 3`` on its *own* socket, so a lease
  cannot expire merely because the main connection is busy shipping a
  large result frame. If the agent dies, heartbeats stop, leases expire,
  and the coordinator steals the cells back — that is the whole
  work-stealing protocol from the worker's side: do nothing.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.protocol import FrameConnection, PROTOCOL_VERSION, ProtocolError

#: Sleep between lease polls while the coordinator has no work yet.
_IDLE_POLL_S = 0.2

#: Reconnect backoff: first gap, growth cap.
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0


def default_worker_name() -> str:
    """``host-pid`` — unique per agent process across a fleet."""
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkerAgent:
    """Lease-execute-report loop against one coordinator.

    Args:
        address: Coordinator ``(host, port)``.
        jobs: Process-pool width for executing leased cells (``1`` =
            serial in-process, no fork).
        name: Stable worker identity; defaults to ``host-pid``.
        lease_cells: Cells requested per lease; ``0`` asks for
            ``jobs * 4``.
        connect_timeout: Seconds per connection attempt.
        io_timeout: Seconds per frame send/receive.
        reconnect_s: Cumulative seconds the agent will keep retrying a
            dead coordinator before giving up and returning.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        jobs: int = 1,
        name: Optional[str] = None,
        lease_cells: int = 0,
        connect_timeout: float = 5.0,
        io_timeout: float = 120.0,
        reconnect_s: float = 60.0,
    ):
        self.address = (str(address[0]), int(address[1]))
        self.jobs = max(1, int(jobs))
        self.name = name or default_worker_name()
        self.lease_cells = int(lease_cells) or self.jobs * 4
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.reconnect_s = float(reconnect_s)
        self.lease_s = 10.0  # replaced by the coordinator's value at hello
        self.stats = {"leases": 0, "completed": 0, "failed": 0, "reconnects": 0}
        self._stop = threading.Event()
        self._heartbeat: Optional[threading.Thread] = None

    # -- connection management ---------------------------------------------

    def _connect(self) -> FrameConnection:
        """Dial + handshake one connection (raises on refusal/mismatch)."""
        conn = FrameConnection(
            self.address,
            connect_timeout=self.connect_timeout,
            io_timeout=self.io_timeout,
        )
        try:
            welcome = conn.request(
                {
                    "kind": "hello",
                    "version": PROTOCOL_VERSION,
                    "worker": self.name,
                    "jobs": self.jobs,
                }
            )
        except BaseException:
            conn.close()
            raise
        self.lease_s = float(welcome.get("lease_s") or self.lease_s)
        return conn

    def _connect_with_backoff(self) -> Optional[FrameConnection]:
        """Reconnect under the bounded-backoff budget; None when exhausted.

        The budget counts only *offline* time (sleeps between attempts),
        so a long healthy stretch never eats into the allowance for the
        next outage.
        """
        delay = _BACKOFF_BASE_S
        offline = 0.0
        while not self._stop.is_set():
            try:
                return self._connect()
            except ProtocolError:
                raise  # version mismatch / refusal: retrying cannot help
            except OSError:
                if offline >= self.reconnect_s:
                    return None
                sleep_for = min(delay, self.reconnect_s - offline)
                time.sleep(sleep_for)
                offline += sleep_for
                delay = min(delay * 2, _BACKOFF_CAP_S)
                self.stats["reconnects"] += 1
        return None

    def _start_heartbeat(self) -> None:
        """(Re)start the heartbeat thread on its own connection."""
        if self._heartbeat is not None and self._heartbeat.is_alive():
            return

        def beat() -> None:
            conn: Optional[FrameConnection] = None
            while not self._stop.is_set():
                interval = max(0.5, self.lease_s / 3.0)
                if self._stop.wait(interval):
                    break
                try:
                    if conn is None:
                        conn = self._connect()
                    conn.request({"kind": "heartbeat", "worker": self.name})
                except (OSError, ProtocolError):
                    if conn is not None:
                        conn.close()
                    conn = None  # redial next interval; main loop owns backoff
            if conn is not None:
                conn.close()

        self._heartbeat = threading.Thread(
            target=beat, name=f"heartbeat-{self.name}", daemon=True
        )
        self._heartbeat.start()

    # -- lease execution ---------------------------------------------------

    def _execute_lease(self, lease: Dict[str, Any]) -> Dict[str, Any]:
        """Run one lease through the campaign pool; build the result frame.

        ``cache=None`` (no worker-side store) and ``on_failure="keep"``:
        the coordinator owns persistence and failure policy; the worker's
        job is to compute and report. The campaign's retry budget is
        spent *here* (``retries`` comes down in the lease), so a cell the
        worker reports as failed is terminal.
        """
        from repro.runner.pool import run_campaign
        from repro.runner.spec import CampaignCell, CampaignSpec
        from repro.runner.telemetry import drain_session
        from repro.store.base import StoreEntry

        cells = lease.get("cells") or []
        spec = CampaignSpec(
            name=str(lease.get("campaign") or "cluster-lease"),
            cells=[
                CampaignCell(
                    key=str(doc["key"]),
                    task=str(doc["task"]),
                    params=dict(doc.get("params") or {}),
                )
                for doc in cells
            ],
        )
        hashes = {str(doc["key"]): str(doc["hash"]) for doc in cells}
        result = run_campaign(
            spec,
            jobs=self.jobs,
            cache=None,
            retries=int(lease.get("retries") or 0),
            on_failure="keep",
        )
        drain_session()  # agents are long-lived; don't accumulate rollups
        completed: List[Dict[str, Any]] = []
        failed: List[Dict[str, Any]] = []
        for cell in spec:
            outcome = result.outcomes[cell.key]
            if outcome.ok:
                entry = StoreEntry(
                    content_hash=hashes[cell.key],
                    value=outcome.value,
                    meta={"key": cell.key, "task": cell.task, "worker": self.name},
                )
                completed.append(
                    {
                        "hash": hashes[cell.key],
                        "entry": entry.to_wire(),
                        "wall": outcome.wall,
                        "worker": outcome.worker,
                    }
                )
            else:
                failed.append(
                    {
                        "hash": hashes[cell.key],
                        "key": cell.key,
                        "error": outcome.error,
                        "attempts": outcome.attempts,
                    }
                )
        self.stats["completed"] += len(completed)
        self.stats["failed"] += len(failed)
        return {
            "kind": "result",
            "worker": self.name,
            "completed": completed,
            "failed": failed,
        }

    # -- main loop ---------------------------------------------------------

    def run(self, max_leases: int = 0) -> Dict[str, int]:
        """Lease/execute/report until stopped or the coordinator is gone.

        Returns the stats dict. ``max_leases`` bounds the loop for tests;
        ``0`` runs until :meth:`stop` or the reconnect budget expires.
        """
        conn = self._connect_with_backoff()
        if conn is None:
            return dict(self.stats)
        self._start_heartbeat()
        try:
            while not self._stop.is_set():
                if max_leases and self.stats["leases"] >= max_leases:
                    break
                try:
                    reply = conn.request(
                        {
                            "kind": "lease",
                            "worker": self.name,
                            "max_cells": self.lease_cells,
                        }
                    )
                    if reply.get("kind") != "lease":
                        if self._stop.wait(_IDLE_POLL_S):
                            break
                        continue
                    self.stats["leases"] += 1
                    report = self._execute_lease(reply)
                    conn.request(report)
                except (OSError, ProtocolError) as exc:
                    if isinstance(exc, ProtocolError) and "version mismatch" in str(exc):
                        raise
                    conn.close()
                    fresh = self._connect_with_backoff()
                    if fresh is None:
                        break
                    conn = fresh
                    self._start_heartbeat()
        finally:
            self._stop.set()
            try:
                conn.request({"kind": "bye", "worker": self.name})
            except (OSError, ProtocolError):
                pass
            conn.close()
        return dict(self.stats)

    def stop(self) -> None:
        self._stop.set()
