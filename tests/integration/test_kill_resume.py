"""Integration: a campaign SIGKILLed mid-run resumes to a byte-identical
result.

The headline service invariant: kill -9 against a running campaign loses no
completed work and changes no bytes of the final merged result. A driver
subprocess runs a slow campaign against a store + journal; the test kills
its whole process group (driver and pool workers) once the store holds a
few entries, checks no process of the group outlives the kill, re-runs the
same campaign in-process (``--resume`` semantics), and compares the merged
results — and the store contents — against an uninterrupted reference run.
"""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import CampaignSpec, canonical_json, run_campaign
from repro.service import CampaignJournal
from repro.store import JsonStore, SqliteStore, open_store

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Slow enough that a poll-and-kill lands mid-campaign, fast enough for CI.
CELLS = 14
SLEEP_S = 0.3


def build_spec() -> CampaignSpec:
    """The campaign both the doomed driver and the resumer run — must be
    built from identical literals so the spec hash (and with it the journal
    file and every cell hash) matches across processes."""
    return CampaignSpec.from_grid(
        "kill-resume",
        task="repro.runner.tasks:checksum_cell",
        axes={"seed": list(range(CELLS))},
        fixed={"spin": 1000, "sleep": SLEEP_S},
    )


DRIVER = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from tests.integration.test_kill_resume import build_spec
from repro.runner import run_campaign

run_campaign(build_spec(), jobs=2, cache={store_url!r}, journal={journal!r})
"""


def _store_url(backend, tmp_path: Path, name: str) -> str:
    if backend is JsonStore:
        return f"json:{tmp_path / name}"
    return f"sqlite:{tmp_path / name}.db"


def _running_in_group(pgid: int) -> list:
    """The CI kill-resume script's check: pids of process group ``pgid``
    still running 5 s on (zombies count as gone)."""
    path = REPO_ROOT / "scripts" / "kill_resume_check.py"
    spec = importlib.util.spec_from_file_location("kill_resume_check", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script._running_in_group(pgid)


def _count(store_url: str) -> int:
    handle = open_store(store_url)
    try:
        return len(handle)
    finally:
        handle.close()


@pytest.mark.parametrize("backend", [JsonStore, SqliteStore], ids=["json", "sqlite"])
def test_sigkill_then_resume_is_byte_identical(tmp_path, backend):
    store_url = _store_url(backend, tmp_path, "store")
    journal_dir = str(tmp_path / "journals")
    driver = tmp_path / "driver.py"
    driver.write_text(
        DRIVER.format(
            src=str(REPO_ROOT / "src"),
            root=str(REPO_ROOT),
            store_url=store_url,
            journal=journal_dir,
        ),
        encoding="utf-8",
    )

    process = subprocess.Popen(
        [sys.executable, str(driver)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                pytest.fail("driver campaign finished before it could be killed")
            if _count(store_url) >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("driver campaign never stored an entry")
    finally:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
    assert _running_in_group(process.pid) == [], "pool workers outlived the kill"

    surviving = _count(store_url)
    assert 2 <= surviving < CELLS, "kill landed outside the campaign window"

    spec = build_spec()
    journal_files = list(Path(journal_dir).glob("*.jsonl"))
    assert len(journal_files) == 1
    state = CampaignJournal(journal_files[0]).replay()
    assert state.generations == 1
    assert state.interrupted
    # Journal-after-store ordering: the journal never claims a cell the
    # store lacks, but a kill between the two writes may under-report.
    assert len(state.completed) <= surviving

    resumed = run_campaign(spec, jobs=2, cache=store_url, journal=journal_dir)
    assert resumed.telemetry.cached == surviving
    assert resumed.telemetry.computed == CELLS - surviving
    assert resumed.telemetry.resumed == len(state.completed)

    reference = run_campaign(spec, jobs=1)  # uninterrupted, uncached
    assert canonical_json(resumed.results) == canonical_json(reference.results)

    # The journal now shows a complete second generation.
    final = CampaignJournal(journal_files[0]).replay()
    assert final.generations == 2
    assert not final.interrupted

    # Resuming again touches nothing: every cell is a resumed cache hit.
    again = run_campaign(spec, jobs=2, cache=store_url, journal=journal_dir)
    assert again.telemetry.computed == 0
    assert again.telemetry.cached == CELLS
    assert canonical_json(again.results) == canonical_json(reference.results)


@pytest.mark.parametrize("backend", [JsonStore, SqliteStore], ids=["json", "sqlite"])
def test_parallel_jobs_byte_identical_to_serial(tmp_path, backend):
    """``--jobs N`` ≡ ``--jobs 1``, per backend, stores included."""
    spec = CampaignSpec.from_grid(
        "jobs-invariance",
        task="repro.runner.tasks:seeded_checksum_cell",
        axes={"key": [f"cell{i}" for i in range(10)]},
        fixed={"root_seed": 17, "spin": 2000},
    )
    serial_url = _store_url(backend, tmp_path, "serial")
    parallel_url = _store_url(backend, tmp_path, "parallel")
    serial = run_campaign(spec, jobs=1, cache=serial_url)
    parallel = run_campaign(spec, jobs=4, cache=parallel_url)

    assert canonical_json(serial.results) == canonical_json(parallel.results)
    assert list(serial.results) == list(parallel.results)  # spec order, both

    serial_store = open_store(serial_url)
    parallel_store = open_store(parallel_url)
    try:
        serial_entries = [(e.content_hash, canonical_json(e.value)) for e in serial_store.entries()]
        parallel_entries = [(e.content_hash, canonical_json(e.value)) for e in parallel_store.entries()]
        assert serial_entries == parallel_entries
    finally:
        serial_store.close()
        parallel_store.close()
