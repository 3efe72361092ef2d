"""Unit coverage for the fleet observability primitives.

Pins the event-log record contract (schema, sequencing, context binding,
torn-line tolerance), the cross-snapshot merge rules the fleet rollup
depends on, the Prometheus text exposition, the atomic snapshot writer,
and the console's gather/render split.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.obs as obs
from repro.obs import events as ev
from repro.obs.console import gather_fleet_state, render_top
from repro.obs.export import (
    MetricsExporter,
    prometheus_text,
    read_metrics_snapshots,
    write_metrics_snapshot,
)
from repro.obs.registry import (
    MetricsRegistry,
    merge_registry_snapshots,
    process_metrics_snapshot,
    process_registries,
)


class TestEventLog:
    def test_records_carry_schema_seq_pid_ts_kind(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ev.enable_event_log(path)
        ev.emit("cell.start", cell="a")
        ev.emit("cell.complete", cell="a")
        ev.disable_event_log()
        records = ev.read_events(path)
        assert [r["kind"] for r in records] == ["cell.start", "cell.complete"]
        assert [r["seq"] for r in records] == [1, 2]
        for record in records:
            assert record["v"] == ev.EVENT_SCHEMA
            assert record["pid"] == os.getpid()
            assert isinstance(record["ts"], float)

    def test_emit_is_noop_until_enabled(self, tmp_path):
        ev.emit("cell.start", cell="ghost")
        assert not ev.EVENTS.active
        assert ev.event_log() is None

    def test_context_binds_and_unbinds(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ev.enable_event_log(path)
        ev.set_context(campaign="fig4")
        ev.emit("one")
        with ev.bound_context(cell="k", campaign="override"):
            ev.emit("two")
        ev.emit("three")
        ev.set_context(campaign=None)
        ev.emit("four")
        ev.disable_event_log()
        one, two, three, four = ev.read_events(path)
        assert one["campaign"] == "fig4" and "cell" not in one
        assert two["campaign"] == "override" and two["cell"] == "k"
        assert three["campaign"] == "fig4" and "cell" not in three
        assert "campaign" not in four

    def test_disable_clears_context(self, tmp_path):
        ev.enable_event_log(tmp_path / "a.jsonl")
        ev.set_context(campaign="x")
        ev.disable_event_log()
        ev.enable_event_log(tmp_path / "b.jsonl")
        ev.emit("probe")
        ev.disable_event_log()
        (record,) = ev.read_events(tmp_path / "b.jsonl")
        assert "campaign" not in record

    def test_read_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ev.enable_event_log(path)
        ev.emit("cell.complete", cell="a")
        ev.emit("cell.complete", cell="b")
        ev.disable_event_log()
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 7])  # SIGKILL mid-write
        records = ev.read_events(path)
        assert [r["cell"] for r in records] == ["a"]
        assert ev.read_events(tmp_path / "missing.jsonl") == []

    def test_completed_cell_keys(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ev.enable_event_log(path)
        ev.emit("cell.start", cell="a")
        ev.emit("cell.complete", cell="a")
        ev.emit("cell.complete", cell="b")
        ev.emit("cell.failed", cell="c")
        ev.disable_event_log()
        assert ev.completed_cell_keys(path) == {"a", "b"}

    def test_appends_across_reopen(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ev.enable_event_log(path)
        ev.emit("first")
        ev.disable_event_log()
        ev.enable_event_log(path)
        ev.emit("second")
        ev.disable_event_log()
        assert [r["kind"] for r in ev.read_events(path)] == ["first", "second"]


class TestMergeRegistrySnapshots:
    def test_counters_sum_histograms_merge(self):
        obs.enable()
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        for registry, n in ((a, 3), (b, 4)):
            registry.counter("decide.count").inc(n)
            for value in range(n):
                registry.histogram("decide.wall_ns").observe(1000.0 * (value + 1))
        merged = merge_registry_snapshots([a.snapshot(), b.snapshot()])
        assert merged["decide.count"] == 7
        assert merged["decide.wall_ns"]["count"] == 7
        assert merged["decide.wall_ns"]["max"] == 4000.0

    def test_gauges_keep_last_write(self):
        obs.enable()
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        a.gauge("g").set(1.5)
        b.gauge("g").set(2.5)
        assert merge_registry_snapshots([a.snapshot(), b.snapshot()])["g"] == 2.5

    def test_bool_and_shape_changes_are_rejected(self):
        with pytest.raises(ValueError):
            merge_registry_snapshots([{"flag": True}])
        with pytest.raises(ValueError):
            merge_registry_snapshots([{"x": 1}, {"x": {"count": 0}}])
        with pytest.raises(ValueError):
            merge_registry_snapshots([{"x": "text"}])

    def test_empty_inputs_merge_to_empty(self):
        assert merge_registry_snapshots([]) == {}
        assert merge_registry_snapshots([{}, {}]) == {}

    def test_process_snapshot_covers_enrolled_registries(self):
        from repro.runner.pool import POOL_METRICS
        from repro.store import STORE_METRICS

        assert POOL_METRICS in process_registries()
        assert STORE_METRICS in process_registries()
        obs.enable()
        POOL_METRICS.counter("pool.batch_fallback").inc(2)
        snapshot = process_metrics_snapshot()
        assert snapshot["pool.batch_fallback"] == 2


class TestPrometheusText:
    def test_counter_gauge_histogram_shapes(self):
        obs.enable()
        registry = MetricsRegistry("x")
        registry.counter("store.hits").inc(5)
        registry.gauge("pool.load").set(0.5)
        hist = registry.histogram("decide.wall_ns", bounds=(10, 100))
        hist.observe(7)
        hist.observe(70)
        hist.observe(700)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE repro_store_hits counter" in text
        assert "repro_store_hits 5" in text
        assert "# TYPE repro_pool_load gauge" in text
        assert "# TYPE repro_decide_wall_ns histogram" in text
        assert 'repro_decide_wall_ns_bucket{le="10.0"} 1' in text
        assert 'repro_decide_wall_ns_bucket{le="100.0"} 2' in text
        assert 'repro_decide_wall_ns_bucket{le="+Inf"} 3' in text
        assert "repro_decide_wall_ns_count 3" in text
        assert text.endswith("\n")

    def test_names_sanitize_and_labels_escape(self):
        text = prometheus_text({"weird-name.x": 1}, labels={"pid": 42, "q": 'a"b'})
        assert 'repro_weird_name_x{pid="42",q="a\\"b"} 1' in text

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text({}) == ""


class TestSnapshotFiles:
    def test_write_read_roundtrip(self, tmp_path):
        obs.enable()
        registry = MetricsRegistry("x")
        registry.counter("pool.cells").inc(9)
        prom = write_metrics_snapshot(tmp_path, snapshot=registry.snapshot())
        assert prom.name == f"metrics-{os.getpid()}.prom"
        assert f'repro_pool_cells{{pid="{os.getpid()}"}} 9' in prom.read_text()
        payloads = read_metrics_snapshots(tmp_path)
        assert len(payloads) == 1
        payload = payloads[0]
        assert payload["schema"] == "repro-metrics/1"
        assert payload["pid"] == os.getpid()
        assert payload["metrics"]["pool.cells"] == 9
        assert payload["labels"]["pid"] == str(os.getpid())

    def test_reader_skips_junk_and_missing_dir(self, tmp_path):
        (tmp_path / "metrics-123.json").write_text("{half a record")
        assert read_metrics_snapshots(tmp_path) == []
        assert read_metrics_snapshots(tmp_path / "nope") == []

    def test_exporter_throttles_and_flushes(self, tmp_path):
        exporter = MetricsExporter(tmp_path, interval=3600.0)
        assert exporter.tick() is not None  # first tick always writes
        assert exporter.tick() is None  # throttled
        assert exporter.flush() is not None  # unconditional

    def test_first_tick_writes_on_freshly_booted_host(self, tmp_path, monkeypatch):
        # time.monotonic() counts from boot, so on a host up for less than
        # ``interval`` a throttle that starts at 0.0 would swallow the
        # first tick.
        monkeypatch.setattr("repro.obs.export.time.monotonic", lambda: 5.0)
        exporter = MetricsExporter(tmp_path, interval=3600.0)
        assert exporter.tick() is not None
        assert exporter.tick() is None


class TestConsole:
    def _write_events(self, path, records):
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def test_gather_and_render_from_event_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        base = 1000.0
        self._write_events(
            path,
            [
                {"kind": "campaign.begin", "campaign": "fig4", "total": 4, "ts": base},
                {"kind": "cell.complete", "campaign": "fig4", "cell": "a", "ts": base + 1},
                {"kind": "cell.complete", "campaign": "fig4", "cell": "b", "ts": base + 2},
                {"kind": "cell.cached", "campaign": "fig4", "cell": "c", "ts": base + 2},
                {"kind": "cell.retry", "campaign": "fig4", "cell": "d", "ts": base + 2},
                {"kind": "store.hit", "ts": base + 2},
                {"kind": "store.miss", "ts": base + 2},
                {"kind": "store.miss", "ts": base + 2},
            ],
        )
        state = gather_fleet_state(events_path=path, now=base + 3)
        fig4 = state["campaigns"]["fig4"]
        assert fig4["total"] == 4
        assert fig4["done"] == 3
        assert fig4["cached"] == 1
        assert fig4["retries"] == 1
        assert fig4["cells_per_s"] == pytest.approx(1.0)
        assert fig4["eta_s"] == pytest.approx(1.0)
        assert state["counters"]["store.miss"] == 2
        assert state["last_event_age_s"] == pytest.approx(1.0)
        frame = render_top(state)
        assert "fig4" in frame
        assert "3/4" in frame
        assert "1 hits / 2 misses" in frame

    def test_campaign_begin_restarts_counts(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_events(
            path,
            [
                {"kind": "campaign.begin", "campaign": "fig4", "total": 2, "ts": 1.0},
                {"kind": "cell.complete", "campaign": "fig4", "cell": "a", "ts": 2.0},
                {"kind": "campaign.begin", "campaign": "fig4", "total": 2, "ts": 3.0},
            ],
        )
        state = gather_fleet_state(events_path=path, now=4.0)
        assert state["campaigns"]["fig4"]["done"] == 0

    def test_gather_with_metrics_dir(self, tmp_path):
        obs.enable()
        registry = MetricsRegistry("x")
        registry.counter("faults.injected").inc(3)
        write_metrics_snapshot(tmp_path, snapshot=registry.snapshot())
        state = gather_fleet_state(metrics_dir=tmp_path)
        (worker,) = state["workers"]
        assert worker["pid"] == os.getpid()
        assert not worker["stale"]
        assert state["fleet_metrics"]["faults.injected"] == 3
        frame = render_top(state)
        assert f"pid {os.getpid()}" in frame
        assert "injected=3" in frame

    def test_render_with_no_sources(self):
        frame = render_top(gather_fleet_state())
        assert "repro top" in frame
        assert "no sources" in frame

    def test_gather_missing_artifacts_are_tolerated(self, tmp_path):
        state = gather_fleet_state(
            service_root=tmp_path / "no_service",
            events_path=tmp_path / "no_events.jsonl",
            metrics_dir=tmp_path / "no_metrics",
        )
        assert state["service"] is None
        assert state["campaigns"] == {}
        assert state["workers"] == []
        render_top(state)  # must not raise
