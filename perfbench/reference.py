"""Regenerate ``perfbench/reference.json``, the outcome digests every run is
checked against.

    python3 perfbench/reference.py

It replaces the whole file. Run it only when a change is meant to alter
results, and say so in the change: the shipped digests are what makes a faster program prove that its
outcome is unchanged. Figure workloads store a hash per cell, so a run can
name the cells that differ; ``grid-store`` stores only its digest (6000
cells), so a mismatch fails every cell of the pass.
"""

from __future__ import annotations

import json
import shutil
import sys

from common import REFERENCE_FILE, SRC, WORK_DIR, outcome_digest

sys.path.insert(0, str(SRC))

#: Seeds with a shipped reference; the steadiness runs use 1-10.
SEEDS = range(0, 21)
#: Workloads whose reference keeps a hash per cell.
PER_CELL = ("fig12-timedice", "fig4c-norandom")


def main() -> int:
    import workloads

    reference = {}
    workdir = WORK_DIR / "reference"
    try:
        for name, workload in workloads.WORKLOADS.items():
            entries = reference[name] = {}
            for seed in SEEDS:
                spec = workload.build(seed)
                with workloads.backing(workload, workdir / f"{name}-{seed}") as backed:
                    proto = workloads.run_protocol(workload, spec, backed)
                if proto.cold.failed or proto.warm_mismatches():
                    print(f"{name} seed {seed}: cells failed; not recorded", file=sys.stderr)
                    return 1
                cells = proto.cell_hashes()
                entry = {"digest": outcome_digest(cells)}
                if name in PER_CELL:
                    entry["cells"] = cells
                entries[str(seed)] = entry
                print(f"{name} seed {seed}: {entry['digest']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
