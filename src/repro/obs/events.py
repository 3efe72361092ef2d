"""Structured fleet event log: append-only JSON-lines, one line per event.

The third leg of :mod:`repro.obs`, next to the metrics registry and span
tracing: a **durable, streaming** record of what the fleet *did* — cells
started/retried/timed out, batch groups formed and dissolved, store hits
and corruptions, service tickets claimed and drained. Where the registry
answers "how much / how fast", the event log answers "what happened, in
what order, on which worker" — and it survives the process, so a drainer
on another host (ROADMAP item 2) can be audited after the fact.

Records are written by :class:`JsonLinesAppender`, which the campaign
journal (:mod:`repro.service.journal`) shares: each event is a single
``os.write`` of one JSON line to an ``O_APPEND`` descriptor, so concurrent
writers — the pool parent and its forked workers share one inherited
descriptor — interleave at record granularity and a SIGKILL can at worst
tear the final line, which :func:`read_events` tolerates by skipping it.

Every record carries::

    {"v": 1, "seq": 17, "pid": 4242, "ts": 1699.25, "kind": "cell.complete",
     <correlation ids from the ambient context>, <event fields>}

- ``v`` — :data:`EVENT_SCHEMA`, bumped on incompatible encoding changes.
- ``seq`` — per-process monotonic sequence number, re-armed from 0 in
  forked children, so ``(pid, seq)`` totally orders one process's events
  and gaps expose lost records.
- ``ts`` — ``time.time()`` at emit, for cells/sec and ETA math only;
  ordering claims always come from ``(pid, seq)``.
- Correlation ids (``campaign``, ``cell``, ``ticket``, ``run`` — whatever
  :func:`set_context` has bound) tie events across layers: a worker binds
  its cell key once and every store/engine event it emits carries it.

Everything is **off by default** and gated exactly like the metrics
registry: until :func:`enable_event_log` arms :data:`EVENTS`, every
:func:`emit` call is one attribute read plus a branch
(``benchmarks/test_bench_events_overhead.py`` holds the disabled cost, and
``tests/integration/test_fleet_obs.py`` proves disabled runs bit-identical).
Emitting never touches any simulation RNG.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.obs.registry import register_reset

#: Bumped if the record encoding changes incompatibly.
EVENT_SCHEMA = 1


class _EventsState:
    """Mutable singleton the hot emit sites consult.

    Mirrors :class:`repro.obs.gate._Gate`: instrumented call sites do
    ``from repro.obs.events import EVENTS`` once at import time and pay one
    attribute read per event when the log is off.
    """

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active = False


#: The process-wide event-log switch. Flip through
#: :func:`enable_event_log` / :func:`disable_event_log`.
EVENTS = _EventsState()


class JsonLinesAppender:
    """Atomic appends to one JSON-lines file, shared by the event log and
    the campaign journal (:mod:`repro.service.journal`).

    Each record is a single ``os.write`` of one line to an ``O_APPEND``
    descriptor opened on the first append, so concurrent writers interleave
    at record granularity and a SIGKILL can at worst tear the final line,
    which :func:`read_json_lines` skips.
    """

    __slots__ = ("path", "_fd")

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fd: Optional[int] = None

    def append(self, record: Dict[str, Any]) -> None:
        """Atomically append one record (single ``write`` of one line)."""
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class EventLog(JsonLinesAppender):
    """Append-only JSON-lines event sink with per-process sequence numbers.

    A forked child inherits the active log with the parent's pid and
    sequence counter; a fork hook (:func:`_rearm_in_child`) restamps the
    pid and restarts ``seq`` at 1, so ``(pid, seq)`` stays a valid
    per-process order. The inherited ``O_APPEND`` descriptor is kept —
    appends from parent and children interleave at line granularity.
    """

    __slots__ = ("_pid", "_seq")

    def __init__(self, path: Union[str, Path]):
        super().__init__(path)
        self._pid = os.getpid()
        self._seq = 0

    def emit(self, kind: str, **fields: Any) -> None:
        """Atomically append one event (single ``write`` of one line)."""
        self._seq += 1
        record: Dict[str, Any] = {
            "v": EVENT_SCHEMA,
            "seq": self._seq,
            "pid": self._pid,
            "ts": time.time(),
            "kind": kind,
        }
        if _CONTEXT:
            record.update(_CONTEXT)
        if fields:
            record.update(fields)
        self.append(record)


_LOG: Optional[EventLog] = None

#: Ambient correlation ids folded into every emitted record. Forked pool
#: workers inherit the parent's bindings (campaign id) and layer their own
#: (cell key) on top via :func:`bound_context`.
_CONTEXT: Dict[str, Any] = {}


def enable_event_log(path: Union[str, Path]) -> EventLog:
    """Open (or append to) ``path`` and start emitting events process-wide."""
    global _LOG
    if _LOG is not None:
        _LOG.close()
    _LOG = EventLog(path)
    EVENTS.active = True
    return _LOG


def disable_event_log() -> None:
    """Stop emitting, close the sink, and drop the ambient context."""
    global _LOG
    EVENTS.active = False
    if _LOG is not None:
        _LOG.close()
        _LOG = None
    _CONTEXT.clear()


def event_log() -> Optional[EventLog]:
    """The active sink, or None."""
    return _LOG


def _rearm_in_child() -> None:
    if _LOG is not None:
        _LOG._pid = os.getpid()
        _LOG._seq = 0


os.register_at_fork(after_in_child=_rearm_in_child)
register_reset(disable_event_log)


def emit(kind: str, **fields: Any) -> None:
    """Emit one event if the log is active; a gated no-op otherwise.

    Call sites that sit on hot paths should guard with ``EVENTS.active``
    themselves to skip field construction; this function re-checks so
    un-guarded call sites stay correct.
    """
    if EVENTS.active and _LOG is not None:
        _LOG.emit(kind, **fields)


def set_context(**ids: Any) -> None:
    """Bind correlation ids into every subsequent record.

    ``None`` values unbind their key; everything else is stored as-is
    (values must be JSON-serializable).
    """
    for key, value in ids.items():
        if value is None:
            _CONTEXT.pop(key, None)
        else:
            _CONTEXT[key] = value


def clear_context() -> None:
    """Unbind every correlation id."""
    _CONTEXT.clear()


@contextmanager
def bound_context(**ids: Any) -> Iterator[None]:
    """Bind correlation ids for the duration of a ``with`` block,
    restoring the previous bindings (including absences) on exit."""
    saved = {key: _CONTEXT.get(key, _MISSING) for key in ids}
    set_context(**ids)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is _MISSING:
                _CONTEXT.pop(key, None)
            else:
                _CONTEXT[key] = value


_MISSING = object()


# -- reading ----------------------------------------------------------------


def read_json_lines(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int]:
    """Every decodable record in ``path``, in file order, and the number of
    torn lines skipped (lines that do not decode to a JSON object).

    A missing file reads as empty.
    """
    records: List[Dict[str, Any]] = []
    torn = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    torn += 1
                    continue
                if isinstance(record, dict):
                    records.append(record)
                else:
                    torn += 1
    except FileNotFoundError:
        pass
    return records, torn


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every decodable event in ``path``, in file order (torn lines skipped).

    Tolerates a missing file (returns ``[]``) and the torn final line a
    SIGKILL can leave, exactly like the campaign journal's replay.
    """
    return read_json_lines(path)[0]


def completed_cell_keys(path: Union[str, Path]) -> Set[str]:
    """The set of cell keys with a ``cell.complete`` event in ``path``.

    The replay half of the events-vs-journal differential: an enabled
    event log must name exactly the cells the campaign journal records as
    completed (``tests/integration/test_fleet_obs.py``).
    """
    keys: Set[str] = set()
    for record in read_events(path):
        if record.get("kind") == "cell.complete" and record.get("cell"):
            keys.add(str(record["cell"]))
    return keys
