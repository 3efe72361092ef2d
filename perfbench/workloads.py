"""The benchmark's workloads and the one protocol every pass follows.

Every workload is a campaign generated from the workload seed and driven
through the public :func:`repro.runner.run_campaign` API by one closed-loop
client: it submits the campaign and waits for it.

- ``fig12-timedice`` — the Fig. 12 accuracy sweep at ``repro fig12 --quick``
  sizes; the TimeDice decide path dominates.
- ``fig4c-norandom`` — the NoRandom slice of the same sweep (Fig. 4(c)) with
  a longer message; candidate search, busy interval, memo and selector are
  bypassed, so engine delivery, snapshot and observation dominate.
- ``grid-store`` — thousands of short ``simulate_cell`` runs through a
  SQLite store, a journal and the event log, computed cold and then replayed
  warm; runner, store, journal, event log and batch engine dominate.

A pass (:func:`run_protocol`) of a figure workload is one campaign without
a store, as ``repro fig12 --quick --no-cache`` runs it. A ``grid-store``
pass computes the campaign cold and then replays it warm, every cell from
the store.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro._time import SEC
from repro.experiments import fig12_accuracy
from repro.obs.events import disable_event_log, enable_event_log
from repro.runner import (
    CampaignCell,
    CampaignSpec,
    CellEvent,
    derive_seed,
    open_store,
    run_campaign,
)
from repro.runner.telemetry import COMPUTED
from repro.sim.config import RunSpec, SystemSpec

from common import HostSpeed, value_hash

#: ``repro fig12 --quick`` sizes (see ``repro.cli``).
QUICK_PROFILE_SIZES = (10, 20, 50)
QUICK_MESSAGE_WINDOWS = 100
#: Message windows of the Fig. 4(c) slice: long enough that one campaign
#: takes a few seconds, so a run holds several.
FIG4C_MESSAGE_WINDOWS = 600

GRID_POLICIES = ("norandom", "timedice", "timedice-uniform", "tdma")
GRID_CELLS = 6000
GRID_HORIZON = 20_000  # µs


def _fig12(seed: int) -> CampaignSpec:
    return fig12_accuracy.sweep_campaign(
        profile_sizes=QUICK_PROFILE_SIZES,
        message_windows=QUICK_MESSAGE_WINDOWS,
        seed=seed,
    )


def _fig4c(seed: int) -> CampaignSpec:
    return fig12_accuracy.sweep_campaign(
        policies=("norandom",),
        profile_sizes=QUICK_PROFILE_SIZES,
        message_windows=FIG4C_MESSAGE_WINDOWS,
        seed=seed,
        name="fig4c",
    )


def _grid(seed: int) -> CampaignSpec:
    system = SystemSpec.named("three_partition")
    cells = []
    for index in range(GRID_CELLS):
        policy = GRID_POLICIES[index % len(GRID_POLICIES)]
        key = f"policy={policy}/rep={index // len(GRID_POLICIES)}"
        spec = RunSpec(
            system=system,
            policy=policy,
            seed=derive_seed(seed, key),
            horizon=GRID_HORIZON,
        )
        cells.append(
            CampaignCell(
                key=key,
                task="repro.runner.tasks:simulate_cell",
                params={"runspec": spec.to_dict()},
            )
        )
    return CampaignSpec(name="grid-store", cells=cells)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], CampaignSpec]
    #: Worker processes of the measured (untraced) passes.
    jobs: int
    #: Whether passes run through a store, journal and event log and are
    #: replayed warm.
    store_backed: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig12-timedice",
            _fig12,
            jobs=1,
            store_backed=False,
        ),
        Workload(
            "fig4c-norandom",
            _fig4c,
            jobs=1,
            store_backed=False,
        ),
        Workload(
            "grid-store",
            _grid,
            jobs=2,
            store_backed=True,
        ),
    )
}


def simulated_seconds(spec: CampaignSpec) -> float:
    """Simulated time the campaign's cells cover, from their specs' horizons."""
    total = 0
    for cell in spec:
        total += RunSpec.from_dict(cell.params["runspec"]).horizon
    return total / SEC


@dataclass
class CampaignPass:
    """What one ``run_campaign`` call did, as the benchmark saw it."""

    #: Host seconds, without the time host-speed probes took.
    wall: float
    values: Dict[str, Any]
    failed: List[str]
    computed: int
    cached: int
    retries: int
    cell_walls: List[float] = field(default_factory=list)
    #: Turns the pass's host seconds into reference seconds; 1.0 when the
    #: pass was not sampled.
    factor: float = 1.0


def _campaign(
    spec: CampaignSpec, wrap: Callable, sample: bool, **kwargs
) -> CampaignPass:
    speed = HostSpeed()
    walls: List[float] = []
    probed = [0.0]  # probe time up to the previous cell event
    in_process = kwargs.get("jobs", 1) == 1

    def listener(_telemetry, event: CellEvent) -> None:
        if event.kind == COMPUTED:
            # In-process cells run one after another in this thread, so the
            # probes since the previous event interrupted this cell.
            own = speed.busy_s - probed[0] if in_process else 0.0
            probed[0] = speed.busy_s
            walls.append(event.wall - own)

    def call():
        return run_campaign(spec, listeners=[listener], on_failure="keep", **kwargs)

    start = time.perf_counter()
    with speed.sampling() if sample else nullcontext():
        result = wrap(call)
    wall = time.perf_counter() - start - speed.busy_s
    telemetry = result.telemetry
    return CampaignPass(
        wall=wall,
        values=dict(result.results),
        failed=[outcome.key for outcome in result.failures],
        computed=telemetry.computed,
        cached=telemetry.cached,
        retries=telemetry.retries,
        cell_walls=walls,
        factor=speed.factor(),
    )


def _direct(call: Callable[[], Any]) -> Any:
    return call()


@dataclass
class ProtocolResult:
    cold: CampaignPass
    #: The all-cached replay (store-backed workloads only).
    warm: Optional[CampaignPass] = None

    def passes(self) -> List[CampaignPass]:
        return [self.cold] if self.warm is None else [self.cold, self.warm]

    def cell_hashes(self) -> Dict[str, str]:
        return {key: value_hash(value) for key, value in self.cold.values.items()}

    def warm_mismatches(self) -> List[str]:
        """Cells whose warm bytes differ from the cold bytes (or are missing)."""
        if self.warm is None:
            return []
        values = self.warm.values
        return sorted(
            key
            for key, digest in self.cell_hashes().items()
            if key not in values or value_hash(values[key]) != digest
        )


@contextmanager
def backing(workload: Workload, workdir: Path) -> Iterator[Optional[Dict[str, Any]]]:
    """What a store-backed workload's passes run through: a SQLite store
    and a journal in ``workdir``, with the event log on. Yields the
    ``run_campaign`` keyword arguments, or None for a figure workload;
    everything is closed on exit."""
    if not workload.store_backed:
        yield None
        return
    workdir.mkdir(parents=True, exist_ok=True)
    store = open_store(f"sqlite:{workdir / 'results.db'}")
    enable_event_log(workdir / "events.jsonl")
    try:
        yield {"cache": store, "journal": str(workdir / "journal")}
    finally:
        disable_event_log()
        store.close()


def run_protocol(
    workload: Workload,
    spec: CampaignSpec,
    backed: Optional[Dict[str, Any]],
    jobs: Optional[int] = None,
    wrap: Callable[[Callable[[], Any]], Any] = _direct,
    sample: bool = False,
) -> ProtocolResult:
    """One pass: the campaign cold and, when ``backed`` (from
    :func:`backing`) is given, its warm replay through the same store.

    ``wrap`` receives each ``run_campaign`` call as a thunk; the traced run
    uses it to open the root span. ``sample`` probes the host's speed
    while each campaign runs (:class:`common.HostSpeed`).
    """
    jobs = workload.jobs if jobs is None else jobs
    if backed is None:
        return ProtocolResult(cold=_campaign(spec, wrap, sample, jobs=jobs))
    cold = _campaign(spec, wrap, sample, jobs=jobs, **backed)
    warm = _campaign(spec, wrap, sample, jobs=jobs, **backed)
    return ProtocolResult(cold=cold, warm=warm)
