"""Helpers shared by the benchmark's orchestrator, child processes and tests.

Nothing here imports :mod:`repro`: the orchestrator must be able to report a
missing program (exit code 2) without an import error of its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, journals and event logs; removed after a run.
WORK_DIR = ROOT / ".perfbench_work"
#: Chrome traces and layer tables of traced runs.
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


#: Seconds between two host-speed probes while a pass runs.
PROBE_INTERVAL_S = 0.05
#: Steps of one probe (:func:`probe`), about 1 ms of work.
PROBE_STEPS = 6000
#: Seconds a probe takes on the reference host. Reported times are host
#: seconds scaled by ``PROBE_REF_S`` over the mean probe of the same pass,
#: so they read as seconds on a host of that speed.
PROBE_REF_S = 0.001
#: Small enough to stay in cache between probes, so that a probe times the
#: CPU and not the refill of what the program evicted; larger rings tracked
#: the program's wall worse.
_RING_SIZE = 1 << 10


def _ring() -> List[int]:
    """A fixed single-cycle permutation of ``range(_RING_SIZE)``."""
    order = list(range(_RING_SIZE))
    x = 12345
    for i in range(_RING_SIZE - 1, 0, -1):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % i  # Sattolo's shuffle: one cycle through every slot
        order[i], order[j] = order[j], order[i]
    return order


_RING = _ring()
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(_RING_SIZE)}


def probe(steps: int = PROBE_STEPS) -> int:
    """Fixed interpreter work that uses no code of the program: a walk
    round a ring of list slots and dict entries, with integer arithmetic.
    It allocates nothing the garbage collector tracks, so it leaves the
    program's collections where they were. Returns a checksum."""
    ring, table = _RING, _TABLE
    i = acc = 0
    for _ in range(steps):
        i = ring[i]
        acc = (acc + table[i] * 31 + (i ^ acc)) & 0xFFFFFFF
    return acc


class HostSpeed:
    """Samples the host's speed while a pass runs.

    The host's speed changes by tens of percent within seconds and over
    minutes (other tenants share its cores). A timer interrupts the pass
    every :data:`PROBE_INTERVAL_S` and times one :func:`probe` in the same
    thread, so the probes see the host as the pass saw it. ``busy_s`` is
    their total time, which callers take off the pass's wall time;
    :meth:`factor` turns host seconds of the pass into reference seconds.
    """

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.probes = 0

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        probe()
        self.busy_s += time.perf_counter() - start
        self.probes += 1

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls, in C libraries too.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """``PROBE_REF_S`` over the mean probe: the mean probe time follows
        the time-average of the host's slowness, as the pass's wall does."""
        if not self.probes:
            return 1.0
        return PROBE_REF_S * self.probes / self.busy_s


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def canonical(value: Any) -> str:
    """Key-order independent JSON, the byte form results are compared in."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def value_hash(value: Any) -> str:
    """Short content hash of one cell's result."""
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()[:16]


def outcome_digest(cell_hashes: Mapping[str, str]) -> str:
    """One digest over every cell's result hash, independent of order."""
    material = canonical(sorted(cell_hashes.items()))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` for the highest ladder percentile that has at
    least :data:`TAIL_MIN_BEYOND` samples beyond it, or None when there are
    too few samples for even the median to qualify.

    Uses the nearest-rank definition: the ``q``-th percentile of ``n``
    sorted samples is the ``ceil(q/100 * n)``-th smallest, and the samples
    beyond it are the ``n - ceil(q/100 * n)`` larger-ranked ones.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(round(q * n / 100.0, 9)))
        if n - rank >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1]
    return None


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when constant)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def load_reference() -> Dict[str, Any]:
    """Shipped reference digests, ``{workload: {seed: entry}}``."""
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check_cells(
    cell_hashes: Mapping[str, str],
    expected: Optional[Mapping[str, Any]],
    baseline: Optional[Mapping[str, str]],
) -> List[str]:
    """Cells of one pass that disagree with what they should be.

    ``expected`` is the shipped reference entry for this workload and seed:
    ``{"digest": ..., "cells": {key: hash}}`` (``cells`` may be absent, in
    which case a digest mismatch fails every cell). Without a reference the
    pass is compared with ``baseline``, the first pass of the same run.
    Returns the keys of the cells that failed.
    """
    if expected is not None:
        cells = expected.get("cells")
        if cells is not None:
            failed = [k for k in cell_hashes if cells.get(k) != cell_hashes[k]]
            failed += [k for k in cells if k not in cell_hashes]
            return sorted(set(failed))
        if outcome_digest(cell_hashes) == expected.get("digest"):
            return []
        return sorted(cell_hashes) or ["<no cells>"]
    if baseline is None:
        return []
    failed = [k for k in cell_hashes if baseline.get(k) != cell_hashes[k]]
    failed += [k for k in baseline if k not in cell_hashes]
    return sorted(set(failed))


def default_program_problems(environ: Mapping[str, str] = os.environ) -> List[str]:
    """Reasons the environment would measure something other than the
    default program; checked before anything runs."""
    problems = []
    if "REPRO_CACHE_SALT" in environ:
        problems.append("REPRO_CACHE_SALT is set")
    return problems
