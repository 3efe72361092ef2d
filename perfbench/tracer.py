"""Outside-in tracing: timing wrappers installed around the program's layer
entry points from the benchmark's own files, removed again afterwards.

A wrapper opens a span on entry and closes it on exit. Spans nest through
one in-process stack, so each span's *self time* is its duration minus the
time its child spans cover. A span nested in another of the same name
(re-entry, e.g. ``TimeDicePolicy.decide`` calling ``TimeDice.decide``)
adds its self time but not a call: ``calls`` and inclusive time count only
the outermost span of each name.

Totals are exact for every span. Full span records, with parent links, are
kept for the first :data:`KEEP` spans only, which bounds memory and
the size of the Chrome trace written at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

KEEP = 100_000


class _Stat:
    __slots__ = ("calls", "self_ns", "incl_ns", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.depth = 0


class Tracer:
    """An in-memory span recorder with exact per-name self time."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: Dict[str, _Stat] = defaultdict(_Stat)
        #: Kept spans: ``(name, start_ns, duration_ns, parent_index)``.
        self.spans: List[Optional[Tuple[str, int, int, int]]] = []
        self.dropped = 0
        # Open frames: [name, start_ns, child_ns, kept_index, parent_index].
        self._stack: List[list] = []
        #: Free-form counters the wrappers' hooks maintain.
        self.counts: Dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.spans) < KEEP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        self.stats[name].depth += 1
        self._stack.append([name, self.clock(), 0, index, parent])

    def exit(self) -> None:
        name, start, child, index, parent = self._stack.pop()
        duration = self.clock() - start
        stat = self.stats[name]
        stat.self_ns += duration - child
        stat.depth -= 1
        if stat.depth == 0:
            stat.calls += 1
            stat.incl_ns += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, duration, parent)

    def span(self, name: str, call: Callable[[], Any]) -> Any:
        self.enter(name)
        try:
            return call()
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result)`` runs once
        the span is closed, so bookkeeping is not charged to the layer."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, result)
            return result

        timed.__wrapped_by_perfbench__ = True
        return timed

    def self_s(self, name: str) -> float:
        return self.stats[name].self_ns / 1e9 if name in self.stats else 0.0

    def incl_s(self, name: str) -> float:
        return self.stats[name].incl_ns / 1e9 if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def chrome_trace(self, pid: Optional[int] = None) -> Dict[str, Any]:
        """The kept spans as a Chrome ``trace_event`` document (Perfetto
        opens it); each event's ``args.parent`` is its parent's index."""
        pid = os.getpid() if pid is None else pid
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, duration, parent = span
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": duration / 1e3,
                    "pid": pid,
                    "tid": 1,
                    "args": {"id": index, "parent": parent},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_dropped": self.dropped},
        }


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def rebind_function(self, original: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module-global bound to ``original`` at
        ``replacement`` — each caller looks a function up in its own module
        globals (``from x import f``)."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def wrap_methods(self, base: type, names: Tuple[str, ...], wrap: Callable) -> None:
        """Wrap each named method wherever ``base`` or a loaded subclass
        defines it (the engine looks methods up on the instance's class)."""
        for cls in _class_tree(base):
            for name in names:
                if name in vars(cls):
                    self.set(cls, name, wrap(vars(cls)[name]))


def _class_tree(base: type) -> List[type]:
    seen: List[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


LOCAL_METHODS = (
    "on_arrival",
    "on_complete",
    "on_executed",
    "on_replenish",
    "pick",
    "has_ready",
    "pending_count",
)
OBSERVER_METHODS = ("on_segment", "on_job_complete", "on_decision")


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's entry points; the caller must ``restore()`` the
    returned patcher (in a ``finally``)."""
    import repro.channel.dataset as dataset
    import repro.core.memo as memo
    import repro.runner.pool as pool
    import repro.sim.batch as batch
    from repro.channel.attack import evaluate_attacks
    from repro.channel.bayes import BayesianDecoder
    from repro.core.busy_interval import schedulability_test
    from repro.core.candidacy import candidate_search
    from repro.core.selection import Selector
    from repro.core.timedice import TimeDice
    from repro.ml.svm import LSSVMClassifier
    from repro.obs.events import EventLog
    from repro.runner.cache import ResultStore
    from repro.service.journal import CampaignJournal
    from repro.sim.engine import Simulator
    from repro.sim.events import EventQueue
    from repro.sim.local import LocalScheduler
    from repro.sim.policies import GlobalPolicyBase
    from repro.sim.trace import Observer

    counts = tracer.counts
    patcher = Patcher()
    try:
        # Runner and the layers it drives.
        patcher.set(pool, "_invoke_cell", tracer.wrap("runner.cell", pool._invoke_cell))

        patcher.set(ResultStore, "get", tracer.wrap("store.get", ResultStore.get))
        patcher.set(ResultStore, "put", tracer.wrap("store.put", ResultStore.put))
        patcher.set(
            CampaignJournal,
            "append",
            tracer.wrap("journal.append", CampaignJournal.append),
        )
        patcher.set(EventLog, "emit", tracer.wrap("eventlog.emit", EventLog.emit))

        def count_runs(args, _results):
            counts["batch.runs"] += len(args[0])

        patcher.rebind_function(
            batch.run_specs_batched,
            tracer.wrap("batch", batch.run_specs_batched, count_runs),
        )

        # Engine.
        last: "weakref.WeakKeyDictionary[Any, Tuple[int, int, int]]" = (
            weakref.WeakKeyDictionary()
        )

        def count_run(args, result):
            sim = args[0]
            memo_stats = getattr(sim.policy, "memo_stats", None)
            hits = memo_stats.hits if memo_stats is not None else 0
            misses = memo_stats.misses if memo_stats is not None else 0
            before = last.get(sim, (0, 0, 0))
            now = (result.decisions, hits, misses)
            counts["engine.decisions"] += now[0] - before[0]
            counts["memo.hits"] += now[1] - before[1]
            counts["memo.misses"] += now[2] - before[2]
            last[sim] = now

        patcher.set(
            Simulator,
            "run_until",
            tracer.wrap("engine.run_until", Simulator.run_until, count_run),
        )
        patcher.set(Simulator, "snapshot", tracer.wrap("engine.snapshot", Simulator.snapshot))
        patcher.set(
            EventQueue,
            "pop_due",
            tracer.wrap("engine.queue.pop_due", EventQueue.pop_due),
        )
        patcher.wrap_methods(
            LocalScheduler, LOCAL_METHODS, lambda fn: tracer.wrap("local", fn)
        )

        # Policy and the TimeDice decide path.
        patcher.wrap_methods(
            GlobalPolicyBase, ("decide",), lambda fn: tracer.wrap("policy.decide", fn)
        )
        patcher.set(TimeDice, "decide", tracer.wrap("policy.decide", TimeDice.decide))
        patcher.rebind_function(
            candidate_search, tracer.wrap("candidacy.search", candidate_search)
        )
        timed_test = tracer.wrap("busy_interval", schedulability_test)
        patcher.rebind_function(schedulability_test, timed_test)
        # SchedulabilityMemo binds its test as a default argument value.
        init = memo.SchedulabilityMemo.__init__
        patcher.set(
            init,
            "__defaults__",
            tuple(timed_test if d is schedulability_test else d for d in init.__defaults__),
        )
        patcher.set(
            memo.SchedulabilityMemo,
            "prepare",
            tracer.wrap("memo.prepare", memo.SchedulabilityMemo.prepare),
        )
        patcher.wrap_methods(Selector, ("select",), lambda fn: tracer.wrap("selector.select", fn))

        # Channel observation and ML decode.
        patcher.wrap_methods(Observer, OBSERVER_METHODS, lambda fn: tracer.wrap("observe", fn))
        patcher.rebind_function(dataset._harvest, tracer.wrap("observe", dataset._harvest))
        patcher.rebind_function(
            evaluate_attacks, tracer.wrap("decode.evaluate", evaluate_attacks)
        )
        for cls in (BayesianDecoder, LSSVMClassifier):
            patcher.set(cls, "fit", tracer.wrap("decode.fit", cls.fit))
            patcher.set(cls, "predict", tracer.wrap("decode.predict", cls.predict))
    except BaseException:
        patcher.restore()
        raise
    return patcher


def wrappers_left() -> List[str]:
    """Names under ``repro`` still bound to a benchmark wrapper (should be
    empty once a patcher has been restored)."""
    left = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, "__wrapped_by_perfbench__", False):
                left.append(f"{module_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == module_name:
                for name, member in vars(value).items():
                    if getattr(member, "__wrapped_by_perfbench__", False):
                        left.append(f"{module_name}.{attr}.{name}")
                    defaults = getattr(member, "__defaults__", None) or ()
                    if any(getattr(d, "__wrapped_by_perfbench__", False) for d in defaults):
                        left.append(f"{module_name}.{attr}.{name}.__defaults__")
    return left


# -- layer metrics --------------------------------------------------------

#: Per-layer self-time metrics and the span names they sum.
SELF_TIME_LAYERS = {
    "runner.self_s": ("runner.campaign",),
    "cell.unattributed_s": ("runner.cell",),
    "store.get.s": ("store.get",),
    "store.put.s": ("store.put",),
    "journal.append.s": ("journal.append",),
    "eventlog.emit.s": ("eventlog.emit",),
    "batch.s": ("batch",),
    "engine.run_until.self_s": ("engine.run_until",),
    "engine.snapshot.s": ("engine.snapshot",),
    "engine.queue.pop_due.s": ("engine.queue.pop_due",),
    "local.s": ("local",),
    "policy.decide.self_s": ("policy.decide",),
    "candidacy.search.self_s": ("candidacy.search",),
    "busy_interval.s": ("busy_interval",),
    "memo.prepare.self_s": ("memo.prepare",),
    "selector.select.s": ("selector.select",),
    "observe.s": ("observe",),
    "decode.evaluate.s": ("decode.evaluate",),
    "decode.fit.s": ("decode.fit",),
    "decode.predict.s": ("decode.predict",),
}

#: The TimeDice decide path: snapshot → decide → search → memo → busy
#: interval → selector.
DECIDE_PATH = (
    "engine.snapshot.s",
    "policy.decide.self_s",
    "candidacy.search.self_s",
    "memo.prepare.self_s",
    "busy_interval.s",
    "selector.select.s",
)


def share_name(metric: str) -> str:
    """``store.get.s`` → ``store.get.share``; ``local.s`` → ``local.share``."""
    for suffix in (".self_s", "_s", ".s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)] + ".share"
    raise ValueError(metric)


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> Dict[str, float]:
    """Per-layer numbers from a traced run whose root spans (one per
    ``run_campaign`` call) took ``traced_wall_s`` in total."""
    counts = tracer.counts
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME_LAYERS.items():
        out[metric] = sum(tracer.self_s(name) for name in names)
        out[share_name(metric)] = out[metric] / traced_wall_s if traced_wall_s else 0.0
    out["decide_path.share"] = sum(out[share_name(m)] for m in DECIDE_PATH)

    gets = tracer.calls("store.get")
    decisions = counts["engine.decisions"]
    lookups = counts["memo.hits"] + counts["memo.misses"]
    decide_calls = tracer.calls("policy.decide")
    out.update(
        {
            "store.get.calls": gets,
            "store.put.calls": tracer.calls("store.put"),
            "journal.append.calls": tracer.calls("journal.append"),
            "eventlog.emit.calls": tracer.calls("eventlog.emit"),
            "batch.calls": tracer.calls("batch"),
            "batch.runs": counts["batch.runs"],
            "engine.decisions": decisions,
            "engine.snapshot.calls": tracer.calls("engine.snapshot"),
            "local.calls": tracer.calls("local"),
            "policy.decide.calls": decide_calls,
            "policy.decide.us_per_call": (
                tracer.incl_s("policy.decide") / decide_calls * 1e6 if decide_calls else 0.0
            ),
            "candidacy.search.calls": tracer.calls("candidacy.search"),
            "busy_interval.tests": tracer.calls("busy_interval"),
            "busy_interval.tests_per_decision": (
                tracer.calls("busy_interval") / decisions if decisions else 0.0
            ),
            "memo.lookups": lookups,
            "memo.hit_ratio": counts["memo.hits"] / lookups if lookups else 0.0,
            "selector.select.calls": tracer.calls("selector.select"),
            "observe.calls": tracer.calls("observe"),
        }
    )
    return out


def write_trace(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)
