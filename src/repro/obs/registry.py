"""The metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

1. **Hot-path cost.** ``Counter.inc`` and ``Histogram.observe`` sit inside
   the engine's per-quantum decide loop. Both are guarded by
   :data:`~repro.obs.gate.GATE` — disabled, they cost one attribute read and
   one branch; enabled, a counter is one integer add and a histogram one
   ``bisect`` into a fixed bound list.
2. **Zero dependencies.** Plain stdlib; snapshots are JSON-serializable
   dicts so they cross process boundaries (campaign workers) and merge into
   :class:`~repro.sim.engine.SimulationResult` without ceremony.
3. **Per-run scoping.** A :class:`MetricsRegistry` is cheap enough to build
   one per :class:`~repro.sim.engine.Simulator`; nothing here is global
   except the gate. Merging across runs happens on *snapshots*
   (:func:`merge_histogram_snapshots`), never on live objects.

Histograms use fixed geometric buckets (default: powers of two from 256 ns
to ~67 ms — decide latencies land mid-range) plus exact count/sum/min/max,
so p50/p95 come from bucket interpolation with exact-extremum clamping.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.gate import GATE

#: Default histogram bounds: 2^8 .. 2^26 ns. A value lands in the first
#: bucket whose bound is >= value; values beyond the last bound go to the
#: overflow bucket.
DEFAULT_BOUNDS: Tuple[int, ...] = tuple(2**k for k in range(8, 27))


class Counter:
    """A monotonically increasing integer, gated on :data:`GATE.enabled`."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if GATE.enabled:
            self.value += n

    def add_always(self, n: int) -> None:
        """Ungated add — for folding externally accumulated exact counters
        (e.g. :class:`~repro.core.memo.MemoStats`) into a snapshot."""
        self.value += n


class Gauge:
    """A last-write-wins float, gated on :data:`GATE.enabled`."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        if GATE.enabled:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` must be sorted ascending; bucket ``i`` counts observations
    ``<= bounds[i]`` (first match), with one extra overflow bucket past the
    last bound.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted non-empty, got {bounds!r}")
        self.name = name
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        if not GATE.enabled:
            return
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def percentile(self, q: float) -> float:
        """Bucket-interpolated quantile ``q`` in [0, 1], clamped to the
        exact observed min/max (so p0/p100 are exact)."""
        return _bucket_percentile(
            self.bounds, self.buckets, self.count, self.vmin, self.vmax, q
        )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": (self.total / self.count) if self.count else None,
            "p50": self.percentile(0.50) if self.count else None,
            "p95": self.percentile(0.95) if self.count else None,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


def _bucket_percentile(
    bounds: Sequence[float],
    buckets: Sequence[int],
    count: int,
    vmin: Optional[float],
    vmax: Optional[float],
    q: float,
) -> float:
    if count <= 0:
        return float("nan")
    q = min(1.0, max(0.0, q))
    target = q * count
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= target:
            lo = bounds[index - 1] if index > 0 else 0.0
            hi = bounds[index] if index < len(bounds) else (vmax if vmax is not None else lo)
            fraction = (target - cumulative) / bucket_count
            value = lo + (hi - lo) * fraction
            if vmin is not None:
                value = max(value, vmin)
            if vmax is not None:
                value = min(value, vmax)
            return value
        cumulative += bucket_count
    return vmax if vmax is not None else float("nan")


def merge_histogram_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold histogram :meth:`Histogram.snapshot` dicts into one.

    All inputs must share the same ``bounds`` (they do, for a given metric
    name). The merged p50/p95 are recomputed from the summed buckets — this
    is what gives campaign telemetry its cross-cell decide-latency rollup.
    """
    snapshots = [s for s in snapshots if s and s.get("count")]
    if not snapshots:
        return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": None,
                "p50": None, "p95": None, "bounds": [], "buckets": []}
    bounds = snapshots[0]["bounds"]
    for s in snapshots[1:]:
        if s["bounds"] != bounds:
            raise ValueError("cannot merge histograms with differing bounds")
    buckets = [0] * (len(bounds) + 1)
    count = 0
    total = 0.0
    vmin: Optional[float] = None
    vmax: Optional[float] = None
    for s in snapshots:
        for i, c in enumerate(s["buckets"]):
            buckets[i] += c
        count += s["count"]
        total += s["sum"]
        if s["min"] is not None:
            vmin = s["min"] if vmin is None else min(vmin, s["min"])
        if s["max"] is not None:
            vmax = s["max"] if vmax is None else max(vmax, s["max"])
    return {
        "count": count,
        "sum": total,
        "min": vmin,
        "max": vmax,
        "mean": total / count if count else None,
        "p50": _bucket_percentile(bounds, buckets, count, vmin, vmax, 0.50),
        "p95": _bucket_percentile(bounds, buckets, count, vmin, vmax, 0.95),
        "bounds": list(bounds),
        "buckets": buckets,
    }


def merge_registry_snapshots(
    snapshots: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold flat :meth:`MetricsRegistry.snapshot` dicts into one.

    The cross-worker merge rule the fleet rollup relies on
    (``CampaignTelemetry`` merging per-worker snapshots shipped back with
    each pool result): integer values (counters) **sum**, histogram dicts
    merge bucket-wise via :func:`merge_histogram_snapshots`, and float
    values (gauges) keep the last write, matching single-process gauge
    semantics. A name may not change shape across snapshots.
    """
    merged: Dict[str, Any] = {}
    pending_histograms: Dict[str, List[Dict[str, Any]]] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.items():
            if isinstance(value, dict):
                pending_histograms.setdefault(name, []).append(value)
            elif isinstance(value, bool):
                raise ValueError(f"metric {name!r} has non-mergeable bool value")
            elif isinstance(value, int):
                previous = merged.get(name, 0)
                if isinstance(previous, float):
                    raise ValueError(f"metric {name!r} changes shape across snapshots")
                merged[name] = previous + value
            elif isinstance(value, float):
                merged[name] = value
            else:
                raise ValueError(
                    f"metric {name!r} has non-mergeable value {value!r}"
                )
    for name, parts in pending_histograms.items():
        if name in merged:
            raise ValueError(f"metric {name!r} changes shape across snapshots")
        merged[name] = merge_histogram_snapshots(parts)
    return merged


class MetricsRegistry:
    """A named bag of metrics with get-or-create accessors.

    One registry per run scope (the engine builds one per
    :class:`~repro.sim.engine.Simulator`); :meth:`snapshot` flattens it to a
    plain dict keyed by metric name.
    """

    def __init__(self, scope: str = "run"):
        self.scope = scope
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{name: value-or-histogram-dict}`` of every metric.

        Zero-valued counters and empty histograms are kept — a snapshot
        always has a stable key set for a given instrumentation surface.
        """
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.snapshot()
        return out

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for name, histogram in list(self._histograms.items()):
            self._histograms[name] = Histogram(name, histogram.bounds)


#: Every long-lived, process-global registry (pool, store, service, batch)
#: registers itself here at import time, which is what lets the metrics
#: exporter snapshot "everything this process knows" without hard-coding a
#: module list. Per-run registries (:class:`~repro.obs.RunObs`) stay out —
#: they are scoped and drained, not process state.
_PROCESS_REGISTRIES: List[MetricsRegistry] = []


def register_process_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Enroll ``registry`` in the process-wide roster; returns it, so
    definition sites read ``X = register_process_registry(MetricsRegistry(s))``."""
    _PROCESS_REGISTRIES.append(registry)
    return registry


def process_registries() -> List[MetricsRegistry]:
    """The enrolled registries, in registration order."""
    return list(_PROCESS_REGISTRIES)


#: One function per piece of process-wide state, each restoring that piece
#: to its import-time default; the owning module enrolls it at import.
_RESETS: List[Callable[[], Any]] = []


def register_reset(clear: Callable[[], Any]) -> Callable[[], Any]:
    """Enroll ``clear`` in :func:`reset`; returns it unchanged."""
    _RESETS.append(clear)
    return clear


def reset() -> None:
    """Restore every piece of process-wide state to its import-time default.

    Covers the obs gate and its sampling settings, the trace capture, the
    run log, the event log and its context, the metrics exporter (disarmed
    without a final flush), both warn-once flags, every enrolled process
    registry, the cluster backend, the ambient fault plan, and the campaign
    telemetry session with its default listeners. State of a module not yet
    imported is already at its default. The autouse fixture in
    ``tests/conftest.py`` calls this around every test.
    """
    for clear in _RESETS:
        clear()


@register_reset
def _zero_process_registries() -> None:
    for registry in _PROCESS_REGISTRIES:
        registry.reset()


# A forked pool worker counts only its own work: left alone, the parent's
# pre-fork counts would be re-exported in the worker's ``metrics-<pid>``
# snapshot and double-counted when per-worker files merge.
os.register_at_fork(after_in_child=_zero_process_registries)


def process_metrics_snapshot() -> Dict[str, Any]:
    """One flat snapshot of every enrolled registry.

    Metric names are disjoint across registries by convention (``pool.*``,
    ``store.*``, ``service.*``, ``batch.*``); a collision merges by the
    :func:`merge_registry_snapshots` rules rather than erroring, so a
    stray duplicate name degrades to a summed counter, not a crash.
    """
    return merge_registry_snapshots([r.snapshot() for r in _PROCESS_REGISTRIES])
