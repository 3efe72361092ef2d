"""CI check: SIGKILL a running campaign, resume it, diff against uninterrupted.

Drives the real CLI end to end:

1. starts ``python -m repro campaign <target> --scale quick`` against a
   fresh store with ``--resume --journal-dir``, as a subprocess;
2. SIGKILLs its whole process group (the CLI and its pool workers) as
   soon as the store holds at least one completed cell, and fails if any
   process of that group is still running 5 s later;
3. re-runs the identical command, which must resume (journal generation 2)
   and complete;
4. runs the same campaign uninterrupted into a second store;
5. diffs the two stores entry for entry — every content hash and every
   canonically serialized value must match exactly.

Exit status 0 means the kill-resume invariant held. Usage::

    python scripts/kill_resume_check.py [--backend sqlite|json] [--target load-sweep]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runner import canonical_json  # noqa: E402
from repro.service import CampaignJournal  # noqa: E402
from repro.store import open_store  # noqa: E402


def _env() -> dict:
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _campaign_argv(
    target: str,
    seed: int,
    store_url: str,
    journal_dir: str,
    obs_dir: "Path | None" = None,
) -> list:
    argv = [
        sys.executable, "-m", "repro", "campaign", target,
        "--scale", "quick", "--seed", str(seed), "--jobs", "2",
        "--store", store_url, "--resume", "--journal-dir", journal_dir,
    ]
    if obs_dir is not None:
        # Fleet sinks ride along so the kill exercises them too: the event
        # log must tolerate a torn final line and the resumed run must
        # append, not clobber. CI uploads these as debugging artifacts.
        argv += [
            "--events-out", str(obs_dir / "events.jsonl"),
            "--metrics-dir", str(obs_dir / "metrics"),
        ]
    return argv


def _running_in_group(pgid: int, within_s: float = 5.0) -> list:
    """Pids of process group ``pgid`` still running after up to ``within_s``
    seconds; zombies waiting to be reaped count as gone (Linux ``/proc``)."""
    deadline = time.monotonic() + within_s
    while True:
        running = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # exited while we looked
            if int(fields[2]) == pgid and fields[0] != "Z":
                running.append(int(entry))
        if not running or time.monotonic() >= deadline:
            return running
        time.sleep(0.05)


def _store_entries(store_url: str) -> list:
    handle = open_store(store_url)
    try:
        return [(e.content_hash, canonical_json(e.value)) for e in handle.entries()]
    finally:
        handle.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=["json", "sqlite"], default="sqlite")
    parser.add_argument("--target", default="load-sweep")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--kill-after-entries", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument(
        "--obs-dir",
        type=Path,
        default=None,
        help="directory for --events-out/--metrics-dir fleet sinks "
        "(kept after the run so CI can upload them)",
    )
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="kill-resume-"))
    if args.backend == "json":
        killed_url = f"json:{workdir / 'killed_store'}"
        clean_url = f"json:{workdir / 'clean_store'}"
    else:
        killed_url = f"sqlite:{workdir / 'killed.db'}"
        clean_url = f"sqlite:{workdir / 'clean.db'}"
    journal_dir = str(workdir / "journals")
    if args.obs_dir is not None:
        args.obs_dir.mkdir(parents=True, exist_ok=True)

    # 1-2. Start the doomed run in its own process group; SIGKILL the group
    # once the store shows progress, so its pool workers die with it.
    doomed_argv = _campaign_argv(
        args.target, args.seed, killed_url, journal_dir, obs_dir=args.obs_dir
    )
    print(f"[kill-resume] starting: {' '.join(doomed_argv)}")
    process = subprocess.Popen(
        doomed_argv, env=_env(), cwd=workdir, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            print("[kill-resume] FAIL: campaign finished before it could be killed; "
                  "slow the target down or lower --kill-after-entries")
            return 1
        if len(_store_entries(killed_url)) >= args.kill_after_entries:
            break
        time.sleep(0.05)
    else:
        print("[kill-resume] FAIL: store never gained an entry")
        os.killpg(process.pid, signal.SIGKILL)
        return 1
    os.killpg(process.pid, signal.SIGKILL)
    process.wait(timeout=60)
    orphans = _running_in_group(process.pid)
    if orphans:
        print(f"[kill-resume] FAIL: processes {orphans} outlived the kill")
        return 1
    survivors = len(_store_entries(killed_url))
    print(f"[kill-resume] killed mid-campaign with {survivors} cell(s) stored")

    # 3. Resume: the identical command must complete from where it died.
    resumed = subprocess.run(
        _campaign_argv(
            args.target, args.seed, killed_url, journal_dir, obs_dir=args.obs_dir
        ),
        env=_env(), cwd=workdir, capture_output=True, text=True, timeout=args.timeout,
    )
    if resumed.returncode != 0:
        print(f"[kill-resume] FAIL: resume exited {resumed.returncode}\n{resumed.stderr}")
        return 1
    journals = list(Path(journal_dir).glob("*.jsonl"))
    if len(journals) != 1:
        print(f"[kill-resume] FAIL: expected one journal, found {journals}")
        return 1
    state = CampaignJournal(journals[0]).replay()
    if state.generations < 2 or state.interrupted:
        print(f"[kill-resume] FAIL: journal shows generations={state.generations}, "
              f"interrupted={state.interrupted}")
        return 1
    print(f"[kill-resume] resumed: journal generation {state.generations}, "
          f"{len(state.completed)} cells completed")

    # 3b. The fleet sinks must have survived the SIGKILL: the event log has
    # to parse (torn final line tolerated) and the exporter has to have left
    # snapshot files behind.
    if args.obs_dir is not None:
        from repro.obs.events import read_events  # noqa: E402
        from repro.obs.export import read_metrics_snapshots  # noqa: E402

        events = read_events(args.obs_dir / "events.jsonl")
        snapshots = read_metrics_snapshots(args.obs_dir / "metrics")
        if not events:
            print("[kill-resume] FAIL: fleet event log is empty after resume")
            return 1
        if not snapshots:
            print("[kill-resume] FAIL: no metrics snapshots survived the kill")
            return 1
        print(f"[kill-resume] fleet sinks: {len(events)} events, "
              f"{len(snapshots)} metrics snapshot(s)")

    # 4. The uninterrupted reference run.
    clean = subprocess.run(
        _campaign_argv(args.target, args.seed, clean_url, str(workdir / "journals2")),
        env=_env(), cwd=workdir, capture_output=True, text=True, timeout=args.timeout,
    )
    if clean.returncode != 0:
        print(f"[kill-resume] FAIL: reference run exited {clean.returncode}\n{clean.stderr}")
        return 1

    # 5. Byte-level diff of the two stores.
    killed_entries = _store_entries(killed_url)
    clean_entries = _store_entries(clean_url)
    if killed_entries != clean_entries:
        killed_hashes = {h for h, _ in killed_entries}
        clean_hashes = {h for h, _ in clean_entries}
        print("[kill-resume] FAIL: stores diverged")
        print(f"  only in killed+resumed: {sorted(killed_hashes - clean_hashes)[:5]}")
        print(f"  only in uninterrupted:  {sorted(clean_hashes - killed_hashes)[:5]}")
        for (h_a, v_a), (h_b, v_b) in zip(killed_entries, clean_entries):
            if h_a == h_b and v_a != v_b:
                print(f"  value mismatch at {h_a}")
        return 1
    print(f"[kill-resume] OK: {len(killed_entries)} entries byte-identical "
          f"({args.backend} backend, killed at {survivors})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
