"""Process state and one-shot RuntimeWarnings re-arm in forked pool workers.

Forked workers start with clean process state: zeroed process registries
and an event-log sequence that restarts at 1. The corrupt-cache and
ambient-override notices fire once per *process*: a forked worker inherits
the parent's already-spent marker and, without the fork hook that re-arms
it, would stay silent for its whole life — exactly the process that
actually touches the corrupt store entries. Each warning test spends the
warning in the parent, forks, and asserts the child warns again (and only
once).
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

import repro
import repro.faults as faults
from repro.faults import FaultPlan, FaultSpec, resolve_fault_plan
from repro.obs.events import disable_event_log, enable_event_log, read_events
from repro.obs.events import emit as emit_event
from repro.obs.registry import process_registries
from repro.store import note_corrupt_entry

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _count_warnings(fn) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning))


def _corrupt_twice() -> int:
    return _count_warnings(
        lambda: (note_corrupt_entry("child-a"), note_corrupt_entry("child-b"))
    )


def _override_twice() -> int:
    explicit = FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=1.0, magnitude=100.0))
    return _count_warnings(
        lambda: (resolve_fault_plan(explicit), resolve_fault_plan(explicit))
    )


def _child(queue, fn) -> None:
    queue.put(fn())


def _run_forked(fn) -> int:
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child, args=(queue, fn))
    child.start()
    result = queue.get(timeout=30)
    child.join(timeout=30)
    return result


@fork_only
def test_corrupt_warning_rearms_in_forked_child():
    assert _count_warnings(lambda: note_corrupt_entry("parent")) == 1
    assert _count_warnings(lambda: note_corrupt_entry("parent-again")) == 0
    assert _run_forked(_corrupt_twice) == 1


@fork_only
def test_ambient_override_warning_rearms_in_forked_child():
    ambient = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=1.0, magnitude=2.0))
    explicit = FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=1.0, magnitude=100.0))
    faults.activate_plan(ambient)
    try:
        assert _count_warnings(lambda: resolve_fault_plan(explicit)) == 1
        assert _count_warnings(lambda: resolve_fault_plan(explicit)) == 0
        # the child inherits both the ambient plan and the spent marker
        assert _run_forked(_override_twice) == 1
    finally:
        faults.deactivate_plan()


def _child_state():
    emit_event("child.first")
    return [registry.counter("test.fork_probe").value for registry in process_registries()]


@fork_only
def test_forked_child_starts_with_zeroed_registries_and_fresh_seq(tmp_path):
    import repro.obs as obs

    obs.enable()
    path = tmp_path / "events.jsonl"
    enable_event_log(path)
    for registry in process_registries():
        registry.counter("test.fork_probe").inc()
    emit_event("parent.first")
    emit_event("parent.second")
    assert set(_run_forked(_child_state)) == {0}
    emit_event("parent.third")
    disable_event_log()
    seqs = {record["kind"]: (record["pid"], record["seq"]) for record in read_events(path)}
    parent_pid = seqs["parent.first"][0]
    assert seqs["parent.third"] == (parent_pid, 3)
    child_pid, child_seq = seqs["child.first"]
    assert child_pid != parent_pid and child_seq == 1


def test_reset_rearms_in_process():
    assert _count_warnings(lambda: note_corrupt_entry("x")) == 1
    repro.reset()
    assert _count_warnings(lambda: note_corrupt_entry("y")) == 1
