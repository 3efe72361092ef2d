"""One fresh interpreter's share of a benchmark run (started by ``run.py``).

``measure`` mode times set-up and one untraced pass. ``trace`` mode runs the
untraced pass, then the same pass at ``jobs=1`` under the outside-in
tracer, and reports per-layer numbers. Either way the result goes to the
JSON file named by ``--out``; nothing is printed on success.

The untraced pass is sampled by :class:`common.HostSpeed`: its times are
host seconds without the probes, and each campaign's ``factor`` turns them
into reference seconds.

Set-up time runs from ``--spawned-at`` (the parent's ``time.monotonic()``
just before it started this interpreter) to the moment the campaign spec
is built, the default program has been confirmed and, on a store-backed
workload, the store is open and the event log on.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from common import SRC

sys.path.insert(0, str(SRC))


def _problems() -> List[str]:
    """Ambient state that would make this measure a non-default program."""
    import repro.faults
    import repro.obs
    from repro.obs.events import event_log
    from repro.obs.gate import GATE
    from repro.runner.pool import cluster_backend

    problems = []
    if GATE.enabled:
        problems.append("the obs gate is enabled")
    if repro.faults.ambient_plan() is not None:
        problems.append("an ambient fault plan is installed")
    if repro.obs.trace_capture() is not None:
        problems.append("a trace capture is active")
    if event_log() is not None:
        problems.append("an event log is already enabled")
    if cluster_backend() is not None:
        problems.append("a cluster backend is installed")
    return problems


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _pass_record(proto, cells: int) -> Dict[str, Any]:
    """What the parent needs to check one protocol pass."""
    return {
        "cells": proto.cell_hashes(),
        "raised": sorted({key for p in proto.passes() for key in p.failed}),
        "warm_mismatch": proto.warm_mismatches(),
        "attempted": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    spec = workload.build(args.seed)
    spec_build_s = time.perf_counter() - start
    problems = _problems()
    if problems:
        result = {"setup_s": time.monotonic() - args.spawned_at, "problems": problems}
        args.out.write_text(json.dumps(result))
        return 3

    cells = len(spec)
    with workloads.backing(workload, args.workdir / "untraced") as backed:
        setup_s = time.monotonic() - args.spawned_at
        untraced = workloads.run_protocol(workload, spec, backed, sample=True)
    cold = untraced.cold
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "import_s": import_s,
        "spec_build_s": spec_build_s,
        "problems": [],
        "factor": cold.factor,
        "warm_factor": untraced.warm.factor if untraced.warm else None,
        "wall_s": cold.wall,
        "warm_s": untraced.warm.wall if untraced.warm else None,
        "cell_walls": cold.cell_walls,
        "sim_s": workloads.simulated_seconds(spec),
        "passes": [_pass_record(untraced, cells)],
    }
    if args.mode == "trace":
        result["layers"] = _trace(args, workload, spec, untraced, result)
    result["peak_rss_mb"] = _peak_rss_mb()
    args.out.write_text(json.dumps(result))
    return 0


def _trace(args, workload, spec, untraced, result) -> Dict[str, float]:
    import tracer as tr
    import workloads

    cells = len(spec)
    cold = untraced.cold
    # Tracing runs in this process (jobs=1); compare it with an untraced
    # pass at the same jobs so the overhead share is like for like.
    reference = untraced
    if workload.jobs != 1:
        with workloads.backing(workload, args.workdir / "reference") as backed:
            reference = workloads.run_protocol(workload, spec, backed, jobs=1)
        result["passes"].append(_pass_record(reference, cells))

    tracer = tr.Tracer()
    with workloads.backing(workload, args.workdir / "traced") as backed:
        patcher = tr.install(tracer)
        try:
            traced = workloads.run_protocol(
                workload,
                spec,
                backed,
                jobs=1,
                wrap=lambda call: tracer.span("runner.campaign", call),
            )
        finally:
            patcher.restore()
    result["passes"].append(_pass_record(traced, cells))
    result["wrappers_left"] = tr.wrappers_left()

    traced_wall = sum(p.wall for p in traced.passes())
    reference_wall = sum(p.wall for p in reference.passes())
    metrics = tr.layer_metrics(tracer, traced_wall)
    metrics.update(
        {
            "import.repro_s": result["import_s"],
            "setup.spec_build_s": result["spec_build_s"],
            "runner.cells_computed": sum(p.computed for p in traced.passes()),
            "runner.cells_cached": sum(p.cached for p in traced.passes()),
            "runner.retries": sum(p.retries for p in traced.passes()),
            "runner.cell_compute_s": sum(traced.cold.cell_walls),
            "runner.pool_idle_share": 1.0
            - sum(cold.cell_walls) / (workload.jobs * cold.wall),
            "store.hit_ratio": traced.warm.cached / cells if traced.warm else 0.0,
            "batch.runs_share": metrics["batch.runs"] / traced.cold.computed
            if traced.cold.computed
            else 0.0,
            "trace.overhead_share": traced_wall / reference_wall - 1.0,
        }
    )
    if args.trace_file is not None:
        tr.write_trace(tracer, args.trace_file)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
