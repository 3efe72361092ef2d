"""Steadiness runs: two sets of benchmark runs of every workload, then one
traced run per workload, recorded with the host they ran on.

    python3 perfbench/steady.py --out perfbench/results/baseline.json

A set runs the benchmark once per seed 1-10 on every workload
declared in ``BENCHMARK.json``; the second set repeats the first. For each
end-to-end metric it records both sets' medians and spreads (inter-quartile
distance over median, as ``statistics.quantiles`` gives the quartiles) and
how far the second median lies from the first, as a share of the first.
It exits 1 when any metric with a bound gets a flag from :func:`flags`.
The per-layer numbers of the traced runs are the layer baseline later
changes are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from common import ROOT, spread

HERE = Path(__file__).resolve().parent
#: Runs per workload in a set, one per seed.
RUNS = 10
PRINTED = re.compile(r"^  (?P<name>[a-z][\w.]*) = (?P<value>[-+\d.e]+) (?P<unit>\S+)  \(")


def host() -> Dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def bench(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    # Metrics the run prints but does not gate (``warm_s``, ``cell_s_p99``).
    for line in lines[:-1]:
        match = PRINTED.match(line)
        if match and match["name"] not in result["metrics"]:
            result["metrics"][match["name"]] = {
                "value": float(match["value"]),
                "unit": match["unit"],
            }
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread(values)}


def flags(metric: str, per_set: List[Dict[str, float]], drift: float, bound: float,
          better: str) -> List[str]:
    """What two sets of one bounded metric fall short of. The acceptance
    rule, in which ``setup_s`` spreads are exempt: ``OVER``, a spread above
    the bound; ``WORSE``, the second median worse than the first by more
    than the bound. The steadiness target: ``WIDE``, a spread of a third of
    the bound or more. Agreement: ``APART``, medians further apart than the
    bound in either direction."""
    spreads = [] if metric == "setup_s" else [s["spread"] for s in per_set]
    worse = -drift if better == "higher" else drift
    found = []
    if any(s > bound for s in spreads):
        found.append("OVER")
    if worse > bound:
        found.append("WORSE")
    if any(s >= bound / 3 for s in spreads):
        found.append("WIDE")
    if abs(drift) > bound:
        found.append("APART")
    return found


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = declared["run_seconds"]
    gated = {m["name"]: m for m in declared["end_to_end"]}
    names = [w["name"] for w in declared["workloads"]]
    seeds = list(range(1, RUNS + 1))
    report: Dict[str, Any] = {"host": host(), "run_seconds": seconds, "seeds": seeds}
    sets: List[Dict[str, List[Dict[str, Any]]]] = []
    for number in (1, 2):
        runs_by_workload: Dict[str, List[Dict[str, Any]]] = {}
        for name in names:
            runs = runs_by_workload[name] = []
            for seed in seeds:
                result = bench(name, seed, seconds, 0)
                runs.append(result)
                values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
                print(f"set {number} {name} seed {seed}: correct={result['correct']} "
                      f"({result['elapsed_s']:.1f} s) {values}", flush=True)
        sets.append(runs_by_workload)

    steady = True
    report["workloads"] = {}
    for name in names:
        first, second = sets[0][name], sets[1][name]
        entry: Dict[str, Any] = {
            "correct": all(r["correct"] for r in first + second),
            "end_to_end": {},
        }
        for metric in first[0]["metrics"]:
            per_set = [summarize([r["metrics"][metric]["value"] for r in runs])
                       for runs in (first, second)]
            drift = (per_set[1]["median"] - per_set[0]["median"]) / per_set[0]["median"]
            bound = gated[metric]["bound"] if metric in gated else None
            entry["end_to_end"][metric] = {
                "sets": per_set,
                "median_drift": drift,
                "bound": bound,
                "unit": first[0]["metrics"][metric]["unit"],
            }
            if bound is None:
                verdict = "printed only, no bound"
            else:
                found = flags(metric, per_set, drift, bound, gated[metric]["better"])
                entry["end_to_end"][metric]["flags"] = found
                steady = steady and not found
                verdict = f"bound={bound} " + (" ".join(found) or "ok")
            print(f"{name} {metric}: medians "
                  + " / ".join(f"{s['median']:.6g}" for s in per_set)
                  + f" (drift {drift:+.4f}), spreads "
                  + " / ".join(f"{s['spread']:.4f}" for s in per_set)
                  + f" {verdict}", flush=True)
        traced = bench(name, seeds[0], seconds, 1)
        entry["correct"] = entry["correct"] and traced["correct"]
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
