"""``repro.reset()`` restores every piece of process-wide state.

The autouse fixture in ``tests/conftest.py`` isolates tests with this one
call, so this test dirties each piece it must cover and checks that the
call puts every one back at its import-time default.
"""

from __future__ import annotations

import warnings

import repro
import repro.faults as faults
import repro.obs as obs
from repro.faults import FaultPlan, FaultSpec, resolve_fault_plan
from repro.obs.events import _CONTEXT, EVENTS, enable_event_log, event_log, set_context
from repro.obs.export import EXPORT, metrics_exporter, start_metrics_exporter
from repro.obs.gate import (
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_SPAN_CAPACITY,
    DEFAULT_WARMUP,
    GATE,
)
from repro.obs.registry import process_registries
from repro.runner.pool import cluster_backend, set_cluster_backend
from repro.runner.telemetry import (
    CampaignTelemetry,
    add_default_listener,
    default_listeners,
    register,
    session_stats,
)
from repro.store import note_corrupt_entry

# Importing this enrolls its registry, so all four are dirtied below.
import repro.cluster  # noqa: F401


def _warnings(fn) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning))


def test_reset_restores_every_piece_of_process_state(tmp_path):
    ambient = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=1.0, magnitude=2.0))
    explicit = FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=1.0, magnitude=100.0))
    registries = process_registries()
    assert {r.scope for r in registries} >= {"pool", "store", "service", "cluster"}

    register(CampaignTelemetry("dirty"))
    add_default_listener(lambda telemetry, event: None)
    obs.enable(sample_every=3, warmup=7, span_capacity=11)
    obs.start_trace_capture()
    obs.RunObs("dirty")
    enable_event_log(tmp_path / "events.jsonl")
    set_context(campaign="dirty")
    start_metrics_exporter(tmp_path / "metrics")
    for registry in registries:
        registry.counter("test.reset_probe").inc()
    set_cluster_backend(object())
    faults.activate_plan(ambient)
    try:
        assert _warnings(lambda: note_corrupt_entry("spent")) == 1
        assert _warnings(lambda: resolve_fault_plan(explicit)) == 1

        repro.reset()

        assert session_stats() == [] and default_listeners() == []
        assert not GATE.enabled
        assert (GATE.sample_every, GATE.warmup, GATE.span_capacity) == (
            DEFAULT_SAMPLE_EVERY,
            DEFAULT_WARMUP,
            DEFAULT_SPAN_CAPACITY,
        )
        assert obs.trace_capture() is None
        assert obs.drain_run_log() == []
        assert event_log() is None and not EVENTS.active and _CONTEXT == {}
        assert metrics_exporter() is None and not EXPORT.active
        assert all(r.snapshot()["test.reset_probe"] == 0 for r in registries)
        assert cluster_backend() is None
        assert faults.ambient_plan() is None
        assert _warnings(lambda: note_corrupt_entry("re-armed")) == 1
        faults.activate_plan(ambient)
        assert _warnings(lambda: resolve_fault_plan(explicit)) == 1
    finally:
        faults.deactivate_plan()
