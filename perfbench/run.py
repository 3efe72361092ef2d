"""The repository benchmark: host-time end-to-end metrics per workload, and
per-layer numbers from a separate traced run.

Usage, from the checkout root::

    python3 perfbench/run.py --workload fig12-timedice --seed 1 --seconds 40 --trace 0

``--trace 0`` starts fresh interpreters one after another: at least
:data:`MIN_CHILDREN`, and more while another fits in ``--seconds``. Each builds the
campaign from the seed, runs it (``grid-store`` also replays it warm from
its store) and reports its times; the run reports medians over them.
Times are reference seconds: while a pass runs, a timer probes the host's
speed every 50 ms with fixed work that is not the program's
(:class:`common.HostSpeed`), and the pass's host seconds, without the
probes, are scaled to a host on which a probe takes
:data:`common.PROBE_REF_S`. The host's speed changes by tens of percent
between runs, and the probes move with it; ``host_wall_s`` prints the
unscaled median beside the gated metrics. ``--trace 1`` starts one
interpreter that also repeats the pass at ``jobs=1`` under timing wrappers
and reports per-layer self times and counts; it writes a Chrome trace
(open it in Perfetto) and the layer table to ``.perfbench_out/`` and
prints their paths. Stores, journals and event logs go to a fresh
directory under ``.perfbench_work/``, removed when the run ends; both
directories are in the checkout, which is all a run may write to.

Every pass is checked: each cell's result is hashed and compared with the
reference digests shipped in ``perfbench/reference.json`` for that seed, or,
for a seed without one, with the run's first pass; warm replays must equal
the cold results byte for byte. Cells that raised or disagree count as
failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.

Exits 2 without a result when the checkout holds no program (``src/repro``)
or the environment would not measure the default program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import (
    OUT_DIR,
    PROBE_REF_S,
    ROOT,
    SRC,
    WORK_DIR,
    check_cells,
    default_program_problems,
    load_reference,
    median,
    outcome_digest,
    program_present,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
#: Fresh interpreters per untraced run, at least (set-up time is a median).
MIN_CHILDREN = 3
#: Wall-clock limit of one child interpreter.
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    pass


def _spawn(
    mode: str, workload, seed: int, workdir: Path, trace_file: Optional[Path]
) -> Dict[str, Any]:
    out = workdir / "result.json"
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    workdir.mkdir(parents=True)
    argv += ["--spawned-at", repr(time.monotonic())]
    # A session of its own, so that killing it also ends its pool workers.
    proc = subprocess.Popen(argv, cwd=str(ROOT), start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not out.is_file():
        raise ChildFailed(f"{mode} child exited with code {code} and no result")
    result = json.loads(out.read_text())
    if result.get("problems"):
        raise ChildFailed("not the default program: " + "; ".join(result["problems"]))
    if code != 0:
        raise ChildFailed(f"{mode} child exited with code {code}")
    return result


def trace_file(args) -> Path:
    return OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"


def run_children(args, workload, workdir: Path) -> List[Dict[str, Any]]:
    if args.trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        return [_spawn("trace", workload, args.seed, workdir / "0", trace_file(args))]
    children = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        child_dir = workdir / str(len(children))
        children.append(_spawn("measure", workload, args.seed, child_dir, None))
        shutil.rmtree(child_dir, ignore_errors=True)
        now = time.monotonic()
        # Start another child only while one as long as the last still fits.
        if len(children) >= MIN_CHILDREN and (now - start) + (now - began) > args.seconds:
            return children


def check(children: List[Dict[str, Any]], workload: str, seed: int):
    """``(attempted, failed, basis, digest)`` over every pass of every child."""
    expected = load_reference().get(workload, {}).get(str(seed))
    baseline = None
    attempted = failed = 0
    basis = "reference" if expected is not None else "consistency"
    for child in children:
        for record in child["passes"]:
            if baseline is None:
                baseline = record["cells"]
            bad = set(check_cells(record["cells"], expected, baseline))
            bad |= set(record["raised"]) | set(record["warm_mismatch"])
            attempted += record["attempted"]
            failed += len(bad)
    return attempted, failed, basis, outcome_digest(baseline or {})


def end_to_end(children: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over the children. Times are in reference seconds: each
    child's host seconds times the factor its sampled pass measured (set-up
    ran just before that pass, so it takes the same factor)."""
    cell_walls = [w * c["factor"] for c in children for w in c["cell_walls"]]
    walls = [c["wall_s"] * c["factor"] for c in children]
    return {
        "setup_s": median(c["setup_s"] * c["factor"] for c in children),
        "wall_s": median(walls),
        "sim_s_per_host_s": median(c["sim_s"] / w for c, w in zip(children, walls)),
        "cell_s_p50": median(cell_walls) if cell_walls else 0.0,
        "peak_rss_mb": median(c["peak_rss_mb"] for c in children),
        "_factor": median(c["factor"] for c in children),
        "_host_wall_s": median(c["wall_s"] for c in children),
        "_cell_samples": len(cell_walls),
        # Batched cells all report their group's average wall, so a wall
        # value stands for a group there, and for one cell elsewhere.
        "_distinct_walls": sum(len(set(c["cell_walls"])) for c in children),
        "_tail": tail_percentile(cell_walls),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a terminated run unwind, so that its child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not program_present():
        print("error: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    problems = default_program_problems()
    if problems:
        print("error: not the default program: " + "; ".join(problems), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        children = run_children(args, workload, workdir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    attempted, failed, basis, digest = check(children, args.workload, args.seed)
    left = [name for child in children for name in child.get("wrappers_left", ())]
    correct = failed == 0 and not left
    print(
        f"{args.workload} seed={args.seed}: {len(children)} interpreter(s), "
        f"outcome_digest={digest} checked against {basis}"
        + ("" if basis == "reference" else " (no shipped reference for this seed)")
    )
    print(f"  failed_ratio = {failed / attempted:.6g}  ({failed} of {attempted} cells)")
    if left:
        print(f"  wrappers left installed: {', '.join(left)}")

    if args.trace:
        values = children[0]["layers"]
        declared_metrics = declared["per_layer"]
    else:
        values = end_to_end(children)
        declared_metrics = declared["end_to_end"]
        tail = values["_tail"]
        n = len(children)
        cell_samples = (
            f"n={values['_cell_samples']} cells, {values['_distinct_walls']} distinct walls"
        )
        print(
            f"  times in reference seconds: host seconds x {_fmt(values['_factor'])} "
            f"(median factor; a host-speed probe takes {PROBE_REF_S:g} s on the "
            f"reference host)"
        )
        for m in declared_metrics:
            samples = cell_samples if m["name"] == "cell_s_p50" else f"n={n}"
            print(f"  {m['name']} = {_fmt(values[m['name']])} {m['unit']}  ({samples})")
        print(f"  host_wall_s = {_fmt(values['_host_wall_s'])} s  (n={n}, unscaled)")
        if children[0]["warm_s"] is not None:
            warm = median(c["warm_s"] * c["warm_factor"] for c in children)
            print(f"  warm_s = {_fmt(warm)} s  (n={n}, the all-cached replay)")
        if tail is not None:
            print(
                f"  cell_s_p99 = {_fmt(tail[1])} s  (p{tail[0]:g}, the highest percentile "
                f"with >= 10 of {cell_samples} beyond it)"
            )
    metrics = {}
    for m in declared_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if args.trace:
        table = format_layers(metrics)
        print(table)
        table_file = OUT_DIR / f"{args.workload}-seed{args.seed}.layers.txt"
        table_file.write_text(table + "\n")
        print(f"  layer table: {table_file}\n  Chrome trace: {trace_file(args)}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def format_layers(metrics: Dict[str, Dict[str, Any]]) -> str:
    width = max(len(name) for name in metrics)
    lines = [f"  {'layer metric'.ljust(width)}  value"]
    for name, entry in metrics.items():
        lines.append(f"  {name.ljust(width)}  {_fmt(entry['value'])} {entry['unit']}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
