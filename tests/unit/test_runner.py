"""Unit tests for the campaign runner: spec hashing, seeding, caching,
retries, timeouts, worker death, and telemetry."""

import json
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runner import (
    MISS,
    CampaignCell,
    CampaignError,
    CampaignSpec,
    CampaignTelemetry,
    ResultCache,
    canonical_json,
    default_key,
    derive_seed,
    grid,
    resolve_task,
    run_campaign,
)
from repro.runner.tasks import checksum_cell

# -- helper cell tasks (resolved by dotted path, so they must be module level)


def add_cell(params):
    return params["a"] + params["b"]


def flaky_cell(params):
    """Fails until a file-based counter reaches ``succeed_at``."""
    counter = params["counter"]
    attempt = int(open(counter).read()) if os.path.exists(counter) else 0
    with open(counter, "w") as handle:
        handle.write(str(attempt + 1))
    if attempt + 1 < params["succeed_at"]:
        raise RuntimeError(f"flaky attempt {attempt + 1}")
    return {"attempts_needed": attempt + 1}


def sleepy_cell(params):
    time.sleep(params["sleep"])
    return "woke"


def suicidal_cell(params):
    """Kills its worker process on the first invocation, succeeds after."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("died once")
        os._exit(13)
    return "survived"


def stuck_then_fast_cell(params):
    """Hangs far past any timeout on its first run, instant afterwards.

    The first invocation drops a marker file before sleeping, so the retry
    (in whatever execution mode the pool degraded to) sees it and returns
    immediately — the shape of a transient environment hang.
    """
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("hung once")
        time.sleep(60.0)
    return "recovered"


def interrupting_cell(params):
    raise KeyboardInterrupt


def unserializable_cell(params):
    return object()


def simulating_cell(params):
    """Runs a short real simulation so the worker's obs rollup has data."""
    from repro.model.configs import three_partition_example
    from repro.sim.engine import Simulator

    sim = Simulator(three_partition_example(), policy="norandom", seed=params["seed"])
    return sim.run_for_ms(30).decisions


_TASK = "tests.unit.test_runner"


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(7, "a/b") == derive_seed(7, "a/b")

    def test_sensitive_to_key_and_root(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_range_is_valid_for_all_consumers(self):
        for root in (0, 1, 2**40):
            for key in ("", "x", "alpha=0.08/policy=timedice"):
                seed = derive_seed(root, key)
                assert 0 <= seed < 2**31

    def test_separator_prevents_collisions(self):
        assert derive_seed(12, "3x") != derive_seed(1, "23x")


class TestSpec:
    def test_hash_stable_across_param_order(self):
        a = CampaignCell("k", "m:f", {"x": 1, "y": 2})
        b = CampaignCell("k", "m:f", {"y": 2, "x": 1})
        assert a.content_hash() == b.content_hash()

    def test_hash_changes_with_params_task_and_salt(self):
        base = CampaignCell("k", "m:f", {"x": 1})
        assert base.content_hash() != CampaignCell("k", "m:f", {"x": 2}).content_hash()
        assert base.content_hash() != CampaignCell("k", "m:g", {"x": 1}).content_hash()
        assert base.content_hash() != base.content_hash(salt="v2")

    def test_hash_ignores_key(self):
        # The key is presentation; the (task, params) pair is the identity.
        a = CampaignCell("k1", "m:f", {"x": 1})
        b = CampaignCell("k2", "m:f", {"x": 1})
        assert a.content_hash() == b.content_hash()

    def test_duplicate_keys_rejected(self):
        cells = [CampaignCell("k", "m:f", {}), CampaignCell("k", "m:g", {})]
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec("dup", cells)

    def test_grid_orders_and_covers(self):
        points = list(grid({"a": [1, 2], "b": ["x", "y"]}))
        assert points == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_from_grid_builds_cells(self):
        spec = CampaignSpec.from_grid(
            "g", task="m:f", axes={"seed": [1, 2]}, fixed={"spin": 5}
        )
        assert [c.key for c in spec] == ["seed=1", "seed=2"]
        assert spec.cells[0].params == {"spin": 5, "seed": 1}

    def test_default_key_renders_floats_compactly(self):
        assert default_key({"alpha": 0.08, "p": "td"}) == "alpha=0.08/p=td"

    def test_spec_hash_order_insensitive(self):
        a = CampaignSpec("s", [CampaignCell("1", "m:f", {}), CampaignCell("2", "m:g", {})])
        b = CampaignSpec("s", [CampaignCell("2", "m:g", {}), CampaignCell("1", "m:f", {})])
        assert a.spec_hash() == b.spec_hash()

    def test_resolve_task_roundtrip(self):
        assert resolve_task("repro.runner.tasks:checksum_cell") is checksum_cell

    def test_resolve_task_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            resolve_task("no_colon")
        with pytest.raises(ValueError):
            resolve_task("repro.runner.tasks:not_there")

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        assert cache.get("ab" + "0" * 38) is MISS
        cache.put("ab" + "0" * 38, {"v": 1}, meta={"key": "k"})
        assert cache.get("ab" + "0" * 38) == {"v": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        cache.put("cd" + "0" * 38, None)
        assert cache.get("cd" + "0" * 38) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        path = cache.path_for("ef" + "0" * 38)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt result-store entry"):
            assert cache.get("ef" + "0" * 38) is MISS

    def test_entry_records_provenance(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        path = cache.put("01" + "0" * 38, 42, meta={"campaign": "c", "key": "k"})
        entry = json.loads(path.read_text())
        assert entry["meta"]["campaign"] == "c"
        assert entry["salt"] == "s"

    def test_contains_agrees_with_get(self, tmp_path):
        # Regression: `in` used to check bare file existence, so corrupt or
        # schema-less entries were "present" yet get() returned MISS.
        cache = ResultCache(tmp_path, salt="s")
        assert ("ab" + "0" * 38) not in cache
        cache.put("ab" + "0" * 38, {"v": 1})
        assert ("ab" + "0" * 38) in cache

    def test_contains_rejects_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        path = cache.path_for("ef" + "0" * 38)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt result-store entry"):
            assert ("ef" + "0" * 38) not in cache
        assert cache.get("ef" + "0" * 38) is MISS

    def test_contains_rejects_schemaless_entry(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        path = cache.path_for("1f" + "0" * 38)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"result": 42}))  # valid JSON, wrong schema
        with pytest.warns(RuntimeWarning, match="corrupt result-store entry"):
            assert ("1f" + "0" * 38) not in cache
        assert cache.get("1f" + "0" * 38) is MISS

    def test_contains_does_not_count_stats(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        cache.put("ab" + "0" * 38, 1)
        ("ab" + "0" * 38) in cache
        ("cd" + "0" * 38) in cache
        assert cache.stats.hits == 0 and cache.stats.misses == 0


def _spec(n=3, name="t"):
    return CampaignSpec.from_grid(
        name,
        task="repro.runner.tasks:checksum_cell",
        axes={"seed": list(range(n))},
        fixed={"spin": 100},
    )


class TestRunCampaign:
    def test_serial_results_in_spec_order(self):
        result = run_campaign(_spec())
        assert list(result.results) == ["seed=0", "seed=1", "seed=2"]
        assert result.telemetry.computed == 3

    def test_parallel_equals_serial(self):
        serial = run_campaign(_spec(4), jobs=1)
        parallel = run_campaign(_spec(4), jobs=4)
        assert serial.results == parallel.results

    def test_cache_hit_skips_execution(self, tmp_path):
        cold = run_campaign(_spec(), cache=str(tmp_path))
        warm = run_campaign(_spec(), cache=str(tmp_path))
        assert cold.telemetry.computed == 3 and cold.telemetry.cached == 0
        assert warm.telemetry.computed == 0 and warm.telemetry.cached == 3
        assert warm.results == cold.results

    def test_salt_invalidates_cache(self, tmp_path):
        run_campaign(_spec(), cache=ResultCache(tmp_path, salt="v1"))
        rerun = run_campaign(_spec(), cache=ResultCache(tmp_path, salt="v2"))
        assert rerun.telemetry.cached == 0 and rerun.telemetry.computed == 3

    def test_param_change_misses_cache(self, tmp_path):
        run_campaign(_spec(), cache=str(tmp_path))
        other = CampaignSpec.from_grid(
            "t",
            task="repro.runner.tasks:checksum_cell",
            axes={"seed": [0, 1, 2]},
            fixed={"spin": 101},
        )
        rerun = run_campaign(other, cache=str(tmp_path))
        assert rerun.telemetry.cached == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_then_succeed(self, tmp_path, jobs):
        spec = CampaignSpec(
            "flaky",
            [
                CampaignCell(
                    "only",
                    f"{_TASK}:flaky_cell",
                    {"counter": str(tmp_path / "n"), "succeed_at": 3},
                )
            ],
        )
        result = run_campaign(spec, jobs=jobs, retries=3, backoff=0.01)
        assert result.results["only"] == {"attempts_needed": 3}
        assert result.telemetry.retries == 2
        assert result.outcomes["only"].attempts == 3

    def test_retries_exhausted_raises(self, tmp_path):
        spec = CampaignSpec(
            "flaky",
            [
                CampaignCell(
                    "only",
                    f"{_TASK}:flaky_cell",
                    {"counter": str(tmp_path / "n"), "succeed_at": 99},
                )
            ],
        )
        with pytest.raises(CampaignError, match="flaky attempt"):
            run_campaign(spec, retries=1, backoff=0.01)

    def test_on_failure_keep_records_outcome(self, tmp_path):
        spec = CampaignSpec(
            "flaky",
            [
                CampaignCell(
                    "bad",
                    f"{_TASK}:flaky_cell",
                    {"counter": str(tmp_path / "n"), "succeed_at": 99},
                ),
                CampaignCell("good", f"{_TASK}:add_cell", {"a": 1, "b": 2}),
            ],
        )
        result = run_campaign(spec, retries=0, backoff=0.01, on_failure="keep")
        assert result.results == {"good": 3}
        assert not result.outcomes["bad"].ok
        assert result.telemetry.failed == 1

    def test_timeout_kills_stuck_worker(self):
        spec = CampaignSpec(
            "stuck",
            [
                CampaignCell("slow", f"{_TASK}:sleepy_cell", {"sleep": 30.0}),
                CampaignCell("fast", f"{_TASK}:add_cell", {"a": 2, "b": 3}),
            ],
        )
        started = time.monotonic()
        result = run_campaign(
            spec, jobs=2, timeout=0.4, retries=0, backoff=0.01, on_failure="keep"
        )
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, "stuck worker was not killed"
        assert result.results == {"fast": 5}
        assert "timeout" in result.outcomes["slow"].error

    def test_worker_death_degrades_gracefully(self, tmp_path):
        spec = CampaignSpec(
            "mortal",
            [
                CampaignCell(
                    "bomb", f"{_TASK}:suicidal_cell", {"marker": str(tmp_path / "m")}
                ),
                CampaignCell("calm", f"{_TASK}:add_cell", {"a": 4, "b": 5}),
            ],
        )
        result = run_campaign(spec, jobs=2, retries=2, backoff=0.01)
        assert result.results["bomb"] == "survived"
        assert result.results["calm"] == 9
        assert result.telemetry.retries >= 1

    def test_timeout_degrades_to_serial_and_finishes(self, tmp_path):
        """Exhausting the rebuild budget must fall back to in-process runs.

        ``max_pool_rebuilds=0`` means the very first timeout kill sends the
        remaining queue (the retried cell *and* the innocent bystanders) to
        the in-process executor, where the marker file lets the retry succeed.
        """
        spec = CampaignSpec(
            "degrade",
            [
                CampaignCell(
                    "hang",
                    f"{_TASK}:stuck_then_fast_cell",
                    {"marker": str(tmp_path / "m")},
                ),
                CampaignCell("a", f"{_TASK}:add_cell", {"a": 1, "b": 2}),
                CampaignCell("b", f"{_TASK}:add_cell", {"a": 3, "b": 4}),
            ],
        )
        started = time.monotonic()
        result = run_campaign(
            spec, jobs=2, timeout=0.5, retries=2, backoff=0.01, max_pool_rebuilds=0
        )
        assert time.monotonic() - started < 30.0, "degradation did not preempt the hang"
        # Every cell terminated with its correct value despite the dead pool.
        assert result.results == {"hang": "recovered", "a": 3, "b": 7}
        assert result.telemetry.retries >= 1
        assert result.outcomes["hang"].attempts == 2
        # The serial fallback runs in-process — no worker pid is recorded
        # for the retried attempt, unlike a pool-executed cell.
        assert result.outcomes["hang"].worker == f"pid-{os.getpid()}"

    def test_worker_death_degrades_to_serial_with_zero_rebuilds(self, tmp_path):
        """BrokenProcessPool with no rebuild budget also lands in-process."""
        spec = CampaignSpec(
            "mortal-serial",
            [
                CampaignCell(
                    "bomb", f"{_TASK}:suicidal_cell", {"marker": str(tmp_path / "m")}
                ),
                CampaignCell("calm", f"{_TASK}:add_cell", {"a": 4, "b": 5}),
            ],
        )
        result = run_campaign(
            spec, jobs=2, retries=2, backoff=0.01, max_pool_rebuilds=0
        )
        assert result.results["bomb"] == "survived"
        assert result.results["calm"] == 9
        assert result.outcomes["bomb"].worker == f"pid-{os.getpid()}"

    def test_degraded_serial_results_match_pure_serial(self, tmp_path):
        """The jobs=N ≡ jobs=1 guarantee survives mid-campaign degradation."""
        cells = [
            CampaignCell(
                "hang",
                f"{_TASK}:stuck_then_fast_cell",
                {"marker": str(tmp_path / "m")},
            )
        ] + [
            CampaignCell(f"s{i}", f"{_TASK}:add_cell", {"a": i, "b": i})
            for i in range(4)
        ]
        degraded = run_campaign(
            CampaignSpec("deg", cells),
            jobs=2, timeout=0.5, retries=2, backoff=0.01, max_pool_rebuilds=0,
        )
        # The marker is left in place, so the serial reference run sees the
        # recovered fast path (serial timeouts cannot preempt a 60s sleep).
        serial = run_campaign(CampaignSpec("deg", cells), jobs=1)
        assert degraded.results == serial.results
        assert list(degraded.results) == list(serial.results)  # spec order

    def test_pool_death_keeps_results_that_already_finished(self, monkeypatch):
        """A dead pool charges only the attempts it did not finish: results
        already in when the break is seen are completed, not recomputed."""
        from repro.runner.pool import _CampaignRunner

        monkeypatch.setattr(
            _CampaignRunner, "_new_executor", staticmethod(lambda jobs: _DiesOnSeedZero())
        )
        result = run_campaign(_spec(8), jobs=8, retries=0, on_failure="keep")
        good = {key: o for key, o in result.outcomes.items() if key != "seed=0"}
        assert len(good) == 7
        assert all(o.ok and o.attempts == 1 for o in good.values())
        assert "worker died" in result.outcomes["seed=0"].error
        assert result.telemetry.computed == 7 and result.telemetry.failed == 1

    def test_keyboard_interrupt_in_process_propagates(self):
        spec = CampaignSpec("ctrl-c", [CampaignCell("c", f"{_TASK}:interrupting_cell", {})])
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, jobs=1, retries=2)

    def test_unserializable_value_errors_with_cache(self, tmp_path):
        spec = CampaignSpec(
            "bad", [CampaignCell("c", f"{_TASK}:unserializable_cell", {})]
        )
        with pytest.raises(TypeError):
            run_campaign(spec, cache=str(tmp_path))

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(_spec(1), on_failure="explode")


class _OrderedFuture(Future):
    """Hashes by submission index, so a set of these iterates in submission
    order whatever the memory layout: the supervisor sees the first cell's
    break before it has looked at any other result."""

    def __init__(self, index):
        super().__init__()
        self._index = index

    def __hash__(self):
        return self._index


class _DiesOnSeedZero:
    """A stand-in pool that runs each call in-process and returns it
    finished — except the ``seed=0`` cell, whose worker died: its future
    raises ``BrokenProcessPool`` while every other result is already in."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, task, params):
        future = _OrderedFuture(self.submitted)
        self.submitted += 1
        if params["seed"] == 0:
            future.set_exception(BrokenProcessPool("a worker died"))
        else:
            future.set_result(fn(task, params))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestTelemetry:
    def test_counters_and_snapshot(self, tmp_path):
        run_campaign(_spec(2), cache=str(tmp_path))
        telemetry = CampaignTelemetry("again", 0)
        run_campaign(_spec(2), cache=str(tmp_path), telemetry=telemetry)
        snap = telemetry.snapshot()
        assert snap["campaign"] == "t"  # run_campaign stamps the spec name
        assert snap["cached"] == 2 and snap["computed"] == 0
        assert snap["cache_hits"] == 2
        assert telemetry.done == 2

    def test_progress_line_mentions_counts(self):
        result = run_campaign(_spec(3))
        line = result.telemetry.progress_line()
        assert "3/3" in line and "3 computed" in line

    def test_worker_wall_time_recorded_parallel(self):
        result = run_campaign(_spec(4), jobs=2)
        workers = result.telemetry.workers
        assert sum(stats.cells for stats in workers.values()) == 4
        assert all(stats.wall >= 0.0 for stats in workers.values())

    def test_to_json_roundtrips(self):
        result = run_campaign(_spec(1))
        snap = json.loads(result.telemetry.to_json())
        assert snap["total"] == 1

    def test_listener_sees_events(self, tmp_path):
        seen = []
        run_campaign(_spec(2), cache=str(tmp_path), listeners=[lambda t, e: seen.append(e.kind)])
        assert seen.count("computed") == 2
        assert seen.count("scheduled") == 2
        assert seen.count("started") == 2
        # A cell the store holds is never scheduled: it gets only "cached".
        seen.clear()
        run_campaign(_spec(2), cache=str(tmp_path), listeners=[lambda t, e: seen.append(e.kind)])
        assert seen == ["cached", "cached"]


def _sim_spec(n):
    return CampaignSpec.from_grid(
        "obs", task=f"{_TASK}:simulating_cell", axes={"seed": list(range(n))}
    )


class TestObsRollup:
    def test_cell_metrics_rollup_when_obs_enabled(self):
        import repro.obs as obs

        obs.enable()
        result = run_campaign(_sim_spec(2))
        telemetry = result.telemetry
        assert set(telemetry.cell_obs) == {"seed=0", "seed=1"}
        rollup = telemetry.decide_rollup()
        assert rollup is not None
        assert rollup["cells"] == 2
        assert "cells_skipped" not in rollup
        assert rollup["count"] > 0
        assert 0 < rollup["p50_ns"] <= rollup["p95_ns"] <= rollup["max_ns"]
        assert telemetry.snapshot()["decide_latency"] == rollup

    def test_no_metrics_when_obs_disabled(self):
        result = run_campaign(_sim_spec(1))
        assert result.telemetry.cell_obs == {}
        assert result.telemetry.decide_rollup() is None
        assert result.telemetry.snapshot()["decide_latency"] is None


class TestResetSession:
    def test_reset_clears_registry_and_default_listeners(self):
        import repro
        from repro.runner.telemetry import (
            add_default_listener,
            default_listeners,
            session_stats,
        )

        run_campaign(_spec(1))
        add_default_listener(lambda t, e: None)
        assert session_stats() and default_listeners()
        repro.reset()
        assert session_stats() == []
        assert default_listeners() == []


class TestKillExecutor:
    """_kill_executor must suppress teardown errors loudly, not silently."""

    class _PoisonProc:
        def terminate(self):
            raise OSError("process table gone")

        def join(self, timeout=None):
            raise OSError("process table gone")

    class _PoisonExecutor:
        def __init__(self, procs):
            self._processes = procs

        def shutdown(self, wait=True, cancel_futures=False):
            raise RuntimeError("executor torn down twice")

    def test_poisoned_executor_surfaces_shutdown_error_count(self):
        import repro.obs as obs
        from repro.runner.pool import POOL_METRICS, _kill_executor

        obs.enable()
        counter = POOL_METRICS.counter("pool.shutdown_error")
        before = counter.value
        # One poisoned worker: terminate, shutdown, and join all raise.
        _kill_executor(self._PoisonExecutor({1: self._PoisonProc()}))
        assert counter.value == before + 3

    def test_counter_is_gated(self):
        from repro.obs.gate import GATE
        from repro.runner.pool import POOL_METRICS, _kill_executor

        assert not GATE.enabled  # conftest resets the gate per test
        counter = POOL_METRICS.counter("pool.shutdown_error")
        before = counter.value
        _kill_executor(self._PoisonExecutor({1: self._PoisonProc()}))
        assert counter.value == before  # suppressed quietly with obs off

    def test_keyboard_interrupt_propagates(self):
        from repro.runner.pool import _kill_executor

        class _InterruptedProc:
            def terminate(self):
                raise KeyboardInterrupt

        class _Executor:
            _processes = {1: _InterruptedProc()}

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        with pytest.raises(KeyboardInterrupt):
            _kill_executor(_Executor())

    def test_system_exit_propagates(self):
        from repro.runner.pool import _kill_executor

        class _Executor:
            _processes = {}

            def shutdown(self, wait=True, cancel_futures=False):
                raise SystemExit(3)

        with pytest.raises(SystemExit):
            _kill_executor(_Executor())
