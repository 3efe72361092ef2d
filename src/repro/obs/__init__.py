"""``repro.obs`` — the shared observability layer.

One lightweight, zero-dependency substrate used by the simulator engine,
the scheduler policies, the schedulability memo, and the campaign runner:

- :mod:`repro.obs.registry` — counters / gauges / fixed-bucket histograms,
  cheap enough to stay on in the per-quantum decide hot path;
- :mod:`repro.obs.spans` — bounded, sampled wall-time span tracing anchored
  to simulated time;
- :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON (schedule
  lanes + scheduler-internal spans) and flat metrics JSON.

Everything is **off by default**: until :func:`enable` flips the module-
level gate, every instrumented call is a no-op attribute access (the bench
guard in ``benchmarks/test_bench_obs_overhead.py`` holds that cost to a few
percent of a decide). Enabling never touches any simulation RNG, so runs
are bit-identical with observability off, on, or sampled
(``tests/integration/test_obs_differential.py``).

Typical use::

    import repro.obs as obs

    obs.enable()
    capture = obs.start_trace_capture()
    sim = Simulator(system, policy="timedice", seed=3)
    result = sim.run_for_ms(300)
    print(obs.format_metrics(result.metrics, sim.obs.spans.summary()))
    obs.export.write_trace("trace.json", obs.stop_trace_capture())
    obs.disable()

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import console, events, export
from repro.obs.console import gather_fleet_state, render_top
from repro.obs.events import (
    EVENT_SCHEMA,
    EVENTS,
    EventLog,
    bound_context,
    disable_event_log,
    enable_event_log,
    event_log,
    read_events,
    set_context,
)
from repro.obs.events import emit as emit_event
from repro.obs.gate import (
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_SPAN_CAPACITY,
    DEFAULT_WARMUP,
    GATE,
)
from repro.obs.export import (
    MetricsExporter,
    export_tick,
    format_metrics,
    metrics_exporter,
    metrics_json,
    prometheus_text,
    read_metrics_snapshots,
    start_metrics_exporter,
    stop_metrics_exporter,
    write_metrics_snapshot,
    write_trace,
)
from repro.obs.registry import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histogram_snapshots,
    merge_registry_snapshots,
    process_metrics_snapshot,
    register_process_registry,
    register_reset,
)
from repro.obs.spans import Span, SpanBuffer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsExporter",
    "RunObs",
    "Span",
    "SpanBuffer",
    "CapturedRun",
    "enable",
    "disable",
    "is_enabled",
    "format_metrics",
    "merge_histogram_snapshots",
    "merge_registry_snapshots",
    "process_metrics_snapshot",
    "register_process_registry",
    "metrics_json",
    "prometheus_text",
    "write_metrics_snapshot",
    "read_metrics_snapshots",
    "start_metrics_exporter",
    "stop_metrics_exporter",
    "metrics_exporter",
    "export_tick",
    "write_trace",
    "start_trace_capture",
    "stop_trace_capture",
    "trace_capture",
    "drain_run_log",
    "runs_snapshot",
    "events",
    "EventLog",
    "EVENTS",
    "EVENT_SCHEMA",
    "enable_event_log",
    "disable_event_log",
    "event_log",
    "emit_event",
    "read_events",
    "set_context",
    "bound_context",
    "export",
    "console",
    "gather_fleet_state",
    "render_top",
    "GATE",
]


def enable(
    sample_every: Optional[int] = None,
    warmup: Optional[int] = None,
    span_capacity: Optional[int] = None,
) -> None:
    """Turn instrumentation on process-wide.

    ``sample_every`` / ``warmup`` / ``span_capacity`` override the defaults
    new :class:`SpanBuffer` instances pick up (existing buffers keep their
    construction-time settings).
    """
    if sample_every is not None:
        GATE.sample_every = max(1, int(sample_every))
    if warmup is not None:
        GATE.warmup = max(0, int(warmup))
    if span_capacity is not None:
        GATE.span_capacity = max(0, int(span_capacity))
    GATE.enabled = True


def disable() -> None:
    """Turn instrumentation off and restore default sampling knobs."""
    GATE.enabled = False
    GATE.sample_every = DEFAULT_SAMPLE_EVERY
    GATE.warmup = DEFAULT_WARMUP
    GATE.span_capacity = DEFAULT_SPAN_CAPACITY


def is_enabled() -> bool:
    return GATE.enabled


# -- per-run scope ----------------------------------------------------------

#: Bound on remembered finished run scopes (the campaign-worker rollup
#: drains this; the bound only matters if nobody drains).
_RUN_LOG_LIMIT = 64

_RUN_LOG: List["RunObs"] = []


class RunObs:
    """One run's observability scope: a metrics registry plus a span buffer.

    The engine builds one per :class:`~repro.sim.engine.Simulator` and hands
    it down to the policy and memo via their ``attach_obs`` hooks, so
    interleaved simulations (pause/resume, nested experiments) never share
    mutable metric state. While the gate is on, freshly created scopes are
    also remembered in a bounded process-level log, which is how campaign
    workers roll each cell's decide latencies up into
    :class:`~repro.runner.telemetry.CampaignTelemetry`.
    """

    __slots__ = ("label", "registry", "spans")

    def __init__(self, label: str = "run"):
        self.label = label
        self.registry = MetricsRegistry(label)
        self.spans = SpanBuffer()
        if GATE.enabled:
            _RUN_LOG.append(self)
            if len(_RUN_LOG) > _RUN_LOG_LIMIT:
                del _RUN_LOG[0]


def drain_run_log() -> List[RunObs]:
    """Return and clear the scopes created since the last drain."""
    drained = list(_RUN_LOG)
    _RUN_LOG.clear()
    return drained


def runs_snapshot(runs: Sequence[RunObs]) -> Optional[Dict[str, Any]]:
    """Merge the full registry snapshots of ``runs`` into one flat dict.

    What a pool worker ships back with each cell result so the campaign
    parent can rebuild *exact* rollups under ``--jobs N``: counters sum,
    histograms merge bucket-wise (:func:`merge_registry_snapshots`).
    Returns None when there is nothing to ship (obs disabled, or no runs).
    """
    snapshots = [run.registry.snapshot() for run in runs]
    merged = merge_registry_snapshots(snapshots)
    return merged or None


# -- trace capture ----------------------------------------------------------


@dataclass
class CapturedRun:
    """One simulation registered with the active trace capture."""

    label: str
    partitions: List[str]
    segments: Any  # object with a ``segments`` list, or the list itself
    obs: Optional[RunObs] = None

    @property
    def spans(self):
        return self.obs.spans.spans if self.obs is not None else []


@dataclass
class TraceCapture:
    """Collects every Simulator created while active (``--trace-out``).

    The engine checks :func:`trace_capture` at construction time and, when
    one is active with room, attaches a bounded ``SegmentRecorder`` and
    registers itself — which is what makes ``--trace-out`` work uniformly
    for *any* sim-backed CLI subcommand without threading a flag through
    every experiment module.

    ``owner_pid`` records the process that started the capture. A forked
    pool worker inherits the capture object but its registrations can never
    reach the parent's trace file, so the pool drops worker-side runs and
    ticks the gated ``trace.worker_runs_dropped`` counter instead of
    silently writing spans nobody collects
    (``tests/integration/test_trace_campaign.py`` pins this).
    """

    segment_limit: int = 250_000
    max_runs: int = 16
    runs: List[CapturedRun] = field(default_factory=list)
    owner_pid: int = field(default_factory=os.getpid)

    def has_room(self) -> bool:
        return len(self.runs) < self.max_runs

    def register(self, run: CapturedRun) -> None:
        if self.has_room():
            self.runs.append(run)


_CAPTURE: Optional[TraceCapture] = None


def start_trace_capture(
    segment_limit: int = 250_000, max_runs: int = 16
) -> TraceCapture:
    """Begin capturing every subsequently constructed Simulator."""
    global _CAPTURE
    _CAPTURE = TraceCapture(segment_limit=segment_limit, max_runs=max_runs)
    return _CAPTURE


def stop_trace_capture() -> List[CapturedRun]:
    """End the capture and return the registered runs."""
    global _CAPTURE
    capture = _CAPTURE
    _CAPTURE = None
    return capture.runs if capture is not None else []


def trace_capture() -> Optional[TraceCapture]:
    """The active capture, or None."""
    return _CAPTURE


register_reset(disable)
register_reset(drain_run_log)
register_reset(stop_trace_capture)
