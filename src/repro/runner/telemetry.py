"""Structured campaign telemetry.

The pool emits one :class:`CellEvent` per lifecycle step (cached, scheduled,
started, computed, retried, timed out, failed); :class:`CampaignTelemetry`
folds the stream into counters and per-worker wall-time aggregates,
forwards every event to registered listeners (the CLI's live progress line
is one), and serializes to JSON for archival.

A process-wide session registry accumulates the telemetry of every campaign
run in this interpreter, so the CLI can print a single footer covering all
campaigns a subcommand triggered.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.obs.registry import (
    merge_histogram_snapshots,
    merge_registry_snapshots,
    register_reset,
)

#: Event kinds, in lifecycle order. A cell the store already holds gets
#: only CACHED; every other cell is SCHEDULED (submitted for computation)
#: once, then STARTED per attempt, which ends COMPUTED, RETRIED or FAILED
#: (TIMED_OUT first when a pool worker ran past the attempt's timeout).
CACHED = "cached"
SCHEDULED = "scheduled"
STARTED = "started"
COMPUTED = "computed"
TIMED_OUT = "timed_out"
RETRIED = "retried"
FAILED = "failed"

#: The kinds that move a counter, and so the progress line.
_COUNTED = (CACHED, COMPUTED, RETRIED, FAILED)


@dataclass(frozen=True)
class CellEvent:
    """One telemetry event for one cell.

    ``obs`` (COMPUTED events only) is the cell's full merged registry
    snapshot (:func:`repro.obs.runs_snapshot`) when :mod:`repro.obs` was
    enabled in the worker, None otherwise: every gated counter, gauge and
    histogram the cell's simulations recorded, including its
    ``decide.wall_ns`` latencies and ``faults.*`` injection counters. It is
    what lets campaign-level rollups stay exact under ``--jobs N``.
    """

    kind: str
    key: str
    attempt: int = 1
    wall: float = 0.0
    worker: str = ""
    error: str = ""
    obs: Optional[Dict[str, Any]] = None


@dataclass
class WorkerStats:
    """Aggregate work performed by one worker (process) of the pool."""

    cells: int = 0
    wall: float = 0.0


class CampaignTelemetry:
    """Counters + listeners for one campaign run."""

    def __init__(self, campaign: str, total: int = 0):
        self.campaign = campaign
        self.total = total
        self.cached = 0
        self.computed = 0
        self.failed = 0
        self.retries = 0
        self.workers: Dict[str, WorkerStats] = {}
        self.listeners: List[Callable[["CampaignTelemetry", CellEvent], None]] = []
        self.started = time.perf_counter()
        self.elapsed = 0.0
        self.jobs = 1
        self.cache_hits = 0
        self.cache_misses = 0
        #: Cached cells that a prior, interrupted journal generation of this
        #: campaign completed — i.e. cells a ``--resume`` skipped. Set by the
        #: pool when a campaign journal is active; 0 otherwise.
        self.resumed = 0
        #: Per-cell full registry snapshots (COMPUTED events that carried
        #: one), keyed by cell key — the exact cross-worker aggregation
        #: source: counters sum, histograms merge bucket-wise.
        self.cell_obs: Dict[str, Dict[str, Any]] = {}

    # -- event stream ------------------------------------------------------

    def emit(self, event: CellEvent) -> None:
        if event.kind == CACHED:
            self.cached += 1
        elif event.kind == COMPUTED:
            self.computed += 1
            if event.worker:
                stats = self.workers.setdefault(event.worker, WorkerStats())
                stats.cells += 1
                stats.wall += event.wall
            if event.obs:
                self.cell_obs[event.key] = event.obs
        elif event.kind == RETRIED:
            self.retries += 1
        elif event.kind == FAILED:
            self.failed += 1
        for listener in self.listeners:
            listener(self, event)

    def finish(self) -> None:
        self.elapsed = time.perf_counter() - self.started

    # -- derived views -----------------------------------------------------

    @property
    def done(self) -> int:
        return self.cached + self.computed + self.failed

    def progress_line(self) -> str:
        """A one-line live status: ``fig12: 5/8 (3 cached, 2 computed, ...)``."""
        parts = [f"{self.cached} cached", f"{self.computed} computed"]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.retries:
            parts.append(f"{self.retries} retried")
        return f"{self.campaign}: {self.done}/{self.total} ({', '.join(parts)})"

    def decide_rollup(self) -> Optional[Dict[str, Any]]:
        """The cross-cell decide-latency rollup: p50/p95/max over the merged
        histograms of every cell that reported one (obs enabled), or None.

        Batch-engine cells legitimately lack ``decide.wall_ns`` (the
        vectorized backend has no scalar decide path); they are *skipped*,
        not counted as zero-latency: ``cells`` is the covered-cell count
        and ``cells_skipped`` (present only when non-zero) says how many
        reporting cells carried no decide histogram.
        """
        covered = [
            histogram
            for histogram in (snap.get("decide.wall_ns") for snap in self.cell_obs.values())
            if isinstance(histogram, dict) and histogram.get("count")
        ]
        if not covered:
            return None
        merged = merge_histogram_snapshots(covered)
        rollup = {
            "cells": len(covered),
            "count": merged["count"],
            "p50_ns": merged["p50"],
            "p95_ns": merged["p95"],
            "max_ns": merged["max"],
        }
        skipped = len(self.cell_obs) - len(covered)
        if skipped:
            rollup["cells_skipped"] = skipped
        return rollup

    def faults_rollup(self) -> Optional[Dict[str, Any]]:
        """The cross-cell fault-injection rollup: summed ``faults.*``
        counters over every cell that reported any (obs enabled and a
        non-null plan fired), or None — the :meth:`decide_rollup` companion.
        """
        cells = 0
        totals: Dict[str, int] = {}
        for snap in self.cell_obs.values():
            fired = [
                (name, value)
                for name, value in snap.items()
                if name.startswith("faults.") and isinstance(value, int) and value
            ]
            cells += bool(fired)
            for name, value in fired:
                totals[name] = totals.get(name, 0) + value
        if not cells:
            return None
        return {"cells": cells, **totals, "faults.total": sum(totals.values())}

    def obs_rollup(self) -> Optional[Dict[str, Any]]:
        """The exact campaign-level registry rollup: every per-cell snapshot
        the workers shipped, merged (counters sum, histograms bucket-wise).

        Under ``--jobs N`` this equals the single-process registry a
        ``--jobs 1`` run would have accumulated for deterministic metrics
        (``tests/integration/test_fleet_obs.py`` pins it). None when no
        cell shipped a snapshot (obs disabled).
        """
        if not self.cell_obs:
            return None
        return merge_registry_snapshots(list(self.cell_obs.values())) or None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "jobs": self.jobs,
            "total": self.total,
            "cached": self.cached,
            "computed": self.computed,
            "failed": self.failed,
            "retries": self.retries,
            "resumed": self.resumed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "elapsed_s": round(self.elapsed, 6),
            "decide_latency": self.decide_rollup(),
            "faults": self.faults_rollup(),
            "obs": self.obs_rollup(),
            "workers": {
                name: {"cells": stats.cells, "wall_s": round(stats.wall, 6)}
                for name, stats in sorted(self.workers.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)


class ProgressPrinter:
    """Listener rendering a live ``\\r``-overwritten progress line.

    Only writes when the stream is a TTY (so piped/captured output stays
    clean) unless ``force=True``.
    """

    def __init__(self, stream: Optional[TextIO] = None, force: bool = False):
        self.stream = stream if stream is not None else sys.stderr
        self.force = force
        self._active = False

    def _enabled(self) -> bool:
        return self.force or bool(getattr(self.stream, "isatty", lambda: False)())

    def __call__(self, telemetry: CampaignTelemetry, event: CellEvent) -> None:
        if event.kind not in _COUNTED or not self._enabled():
            return
        self.stream.write("\r" + telemetry.progress_line().ljust(79))
        self._active = True
        if telemetry.done >= telemetry.total:
            self.stream.write("\n")
            self._active = False
        self.stream.flush()

    def close(self) -> None:
        if self._active and self._enabled():
            self.stream.write("\n")
            self.stream.flush()
            self._active = False


# -- process-wide session registry ----------------------------------------

_SESSION: List[CampaignTelemetry] = []
_DEFAULT_LISTENERS: List[Callable[[CampaignTelemetry, CellEvent], None]] = []


def add_default_listener(listener: Callable[[CampaignTelemetry, CellEvent], None]) -> None:
    """Attach ``listener`` to every campaign subsequently run in this
    process (the CLI uses this to hook its live progress line into
    campaigns started deep inside experiment modules)."""
    _DEFAULT_LISTENERS.append(listener)


def remove_default_listener(listener: Callable[[CampaignTelemetry, CellEvent], None]) -> None:
    try:
        _DEFAULT_LISTENERS.remove(listener)
    except ValueError:
        pass


def default_listeners() -> List[Callable[[CampaignTelemetry, CellEvent], None]]:
    return list(_DEFAULT_LISTENERS)


def register(telemetry: CampaignTelemetry) -> None:
    """Record a finished campaign in the process-wide session registry."""
    _SESSION.append(telemetry)


def session_stats() -> List[CampaignTelemetry]:
    """All campaigns recorded so far (oldest first)."""
    return list(_SESSION)


def drain_session() -> List[CampaignTelemetry]:
    """Return and clear the session registry (the CLI footer calls this)."""
    drained = list(_SESSION)
    _SESSION.clear()
    return drained


@register_reset
def _clear_session() -> None:
    _SESSION.clear()
    _DEFAULT_LISTENERS.clear()


def session_footer(stats: List[CampaignTelemetry]) -> str:
    """Fold a list of campaign telemetries into one CLI footer fragment.

    ``"campaigns: 9 cells (4 cached, 5 computed) | cache: 4 hits, 5 misses"``
    """
    total = sum(t.total for t in stats)
    cached = sum(t.cached for t in stats)
    computed = sum(t.computed for t in stats)
    failed = sum(t.failed for t in stats)
    retries = sum(t.retries for t in stats)
    resumed = sum(t.resumed for t in stats)
    hits = sum(t.cache_hits for t in stats)
    misses = sum(t.cache_misses for t in stats)
    parts = [f"campaigns: {total} cells ({cached} cached, {computed} computed"]
    if resumed:
        parts[0] += f", {resumed} resumed"
    if failed:
        parts[0] += f", {failed} failed"
    if retries:
        parts[0] += f", {retries} retried"
    parts[0] += ")"
    parts.append(f"cache: {hits} hits, {misses} misses")
    return " | ".join(parts)
