"""Batch-engine throughput measurement: the perf_baseline/perf_compare core.

One suite, three workload classes, two engines. Each workload builds a grid
of RunSpecs, times the scalar engine over a sample of them and the batch
engine over the whole grid, and reports cells/sec for both plus their
ratio. Every measurement carries a **results digest** — a hash of the
batch engine's per-run outcome summaries — and a **bit_identical** flag
from comparing the scalar sample's outcomes against the batch outcomes for
the same specs, so a perf artifact can never silently trade correctness
for speed.

Workloads:

- ``three_partition/mixed`` — the Fig. 6 example system under all four
  policy families; the general campaign shape.
- ``three_partition/uniform`` — same system, uniform-selector TimeDice
  only; the batch engine's best class (no per-run weight walks).
- ``feasibility/fig12`` — the Fig. 4/Fig. 12 covert-channel system
  (:func:`repro.experiments.configs.feasibility_experiment`) under the
  Fig. 12 policy sweep; the heaviest per-decision workload in the repo.

``scripts/perf_baseline.py`` freezes a suite run into
``benchmarks/BENCH_baseline.json``; ``scripts/perf_compare.py`` re-runs
the suite and gates on it (digest equality always; speedup-ratio
regression machine-independently; absolute cells/sec only on the same
machine fingerprint).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from typing import Any, Callable, Dict, List, Sequence

from repro.sim.batch import run_specs_batched
from repro.sim.config import RunSpec, SystemSpec
from repro.sim.engine import Simulator

#: Grid sizes the suite uses by default — small enough for CI, big enough
#: to amortize the batch engine's per-round vector overhead (throughput
#: saturates around 192–256 runs per batch).
DEFAULT_BATCH_SIZE = 256
DEFAULT_SCALAR_SAMPLE = 16

#: Alternating scalar/batch timing rounds per workload; each engine's best
#: round is the one reported.
TIMING_ROUNDS = 3

#: Horizon (µs) for the three_partition workloads.
_TP_HORIZON = 500_000

#: feasibility_experiment shape for the fig12-class workload: short message
#: so a CI run stays in seconds, same per-decision cost as the real sweep.
_FEAS_PROFILE_WINDOWS = 8
_FEAS_MESSAGE_WINDOWS = 8


def _three_partition_specs(policies: Sequence[str], count: int) -> List[RunSpec]:
    return [
        RunSpec(
            system=SystemSpec.named("three_partition"),
            policy=policies[index % len(policies)],
            seed=index,
            horizon=_TP_HORIZON,
        )
        for index in range(count)
    ]


def _feasibility_specs(count: int) -> List[RunSpec]:
    from repro.experiments.configs import feasibility_experiment
    from repro.experiments.fig12_accuracy import DEFAULT_POLICIES

    experiment = feasibility_experiment(
        profile_windows=_FEAS_PROFILE_WINDOWS,
        message_windows=_FEAS_MESSAGE_WINDOWS,
    )
    return [
        experiment.runspec(DEFAULT_POLICIES[index % len(DEFAULT_POLICIES)], seed=index)
        for index in range(count)
    ]


WORKLOADS: Dict[str, Callable[[int], List[RunSpec]]] = {
    "three_partition/mixed": lambda count: _three_partition_specs(
        ("norandom", "timedice", "timedice-uniform", "timedice-inverse"), count
    ),
    "three_partition/uniform": lambda count: _three_partition_specs(
        ("timedice-uniform",), count
    ),
    "feasibility/fig12": _feasibility_specs,
}


def machine_fingerprint() -> Dict[str, Any]:
    """Enough platform identity to tell same-machine comparisons apart."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
    }


def _summary(result) -> List[int]:
    return [result.end_time, result.decisions, result.switches, result.deadline_misses]


def results_digest(summaries: Sequence[List[int]]) -> str:
    material = json.dumps(list(summaries), separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def measure_workload(
    name: str,
    batch_size: int = DEFAULT_BATCH_SIZE,
    scalar_sample: int = DEFAULT_SCALAR_SAMPLE,
) -> Dict[str, Any]:
    """Time scalar vs. batch on one workload; verify they agree.

    The scalar engine runs the first ``scalar_sample`` specs of the grid
    cell by cell (the campaign pool's per-process shape); the batch engine
    runs the whole ``batch_size`` grid in one lockstep group. The two take
    turns for :data:`TIMING_ROUNDS` rounds and each reports its best. The
    sampled specs are a prefix of the grid, so every scalar outcome has a
    batch counterpart to compare against — ``bit_identical`` reports that
    comparison, and ``digest`` fingerprints all batch outcomes for
    cross-run comparison.
    """
    build = WORKLOADS[name]
    specs = build(batch_size)
    sample = specs[: min(scalar_sample, len(specs))]

    # Alternate the two engines and keep each one's best time, so a burst of
    # host noise during one timing cannot decide the ratio on its own.
    scalar_wall = batch_wall = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        scalar_results = [Simulator.from_spec(s).run_until(s.horizon) for s in sample]
        scalar_wall = min(scalar_wall, time.perf_counter() - start)

        start = time.perf_counter()
        batch_results = run_specs_batched(specs)
        batch_wall = min(batch_wall, time.perf_counter() - start)

    scalar_summaries = [_summary(r) for r in scalar_results]
    batch_summaries = [_summary(r) for r in batch_results]
    scalar_cps = len(sample) / scalar_wall if scalar_wall else 0.0
    batch_cps = len(specs) / batch_wall if batch_wall else 0.0
    return {
        "workload": name,
        "batch_size": len(specs),
        "scalar_sample": len(sample),
        "scalar_cells_per_s": round(scalar_cps, 2),
        "batch_cells_per_s": round(batch_cps, 2),
        "speedup": round(batch_cps / scalar_cps, 2) if scalar_cps else 0.0,
        "bit_identical": batch_summaries[: len(scalar_summaries)] == scalar_summaries,
        "digest": results_digest(batch_summaries),
    }


def run_suite(
    batch_size: int = DEFAULT_BATCH_SIZE,
    scalar_sample: int = DEFAULT_SCALAR_SAMPLE,
    workloads: Sequence[str] = (),
) -> Dict[str, Any]:
    """Measure every (or the named) workloads; returns the artifact body."""
    names = list(workloads) if workloads else list(WORKLOADS)
    return {
        "schema": "perf-suite/1",
        "machine": machine_fingerprint(),
        "batch_size": batch_size,
        "scalar_sample": scalar_sample,
        "workloads": {name: measure_workload(name, batch_size, scalar_sample)
                      for name in names},
    }


def format_suite(document: Dict[str, Any]) -> str:
    lines = [
        f"{'workload':<26} {'scalar c/s':>10} {'batch c/s':>10} "
        f"{'speedup':>8} {'identical':>9}"
    ]
    for name, row in sorted(document["workloads"].items()):
        lines.append(
            f"{name:<26} {row['scalar_cells_per_s']:>10.2f} "
            f"{row['batch_cells_per_s']:>10.2f} {row['speedup']:>7.2f}x "
            f"{str(row['bit_identical']):>9}"
        )
    return "\n".join(lines)
