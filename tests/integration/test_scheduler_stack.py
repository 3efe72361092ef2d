"""Regression contract of the pluggable scheduler stack (PR 10).

The ``RunSpec.scheduler`` field and the local/global scheduler registries
replaced hard-wired factory plumbing; these tests pin the two promises the
refactor made:

1. **Hash neutrality** — a spec with ``scheduler="fp"`` (explicit or
   omitted) serializes, hashes, and derives seeds *byte-identically* to a
   pre-refactor spec. The pinned digests below were captured on the commit
   before the field existed; if one changes, cached campaign results would
   silently stop matching their cells.
2. **Sound non-default caching** — a non-``fp`` scheduler is folded into
   the spec document (and therefore every content hash and campaign-cell
   identity), and campaign grouping never takes such cells onto the batch
   engine, so they keep scalar-parity results.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest

import repro.obs as obs
import repro.runner.tasks as runner_tasks
from repro.experiments import defense_matrix, fig12_accuracy
from repro.runner import CampaignCell, CampaignSpec, derive_seed, run_campaign
from repro.sim.batch import batch_compatible
from repro.sim.config import RunSpec, SystemSpec
from repro.sim.engine import Simulator

# Captured before RunSpec grew the ``scheduler`` field (PR 9 state).
PINNED_SPEC_HASHES = [
    (
        dict(
            system=SystemSpec.named("three_partition"),
            policy="norandom",
            seed=3,
            horizon=300_000,
        ),
        "0bd536b690dbbc6ffa4cbda9ea2cadade338cc9a",
    ),
    (
        dict(
            system=SystemSpec.named("feasibility", alpha=0.08),
            policy="timedice",
            seed=11,
            horizon=1_500_000,
            quantum=500,
        ),
        "3d1f1de0f750970437f1294edab32a3e7d162d6c",
    ),
]

PINNED_DEFENSE_CELLS = {
    ("global=NoRandom/local=FP", 1453489460, "e28f37a6739e0e43463515354b95ce1d9642a7b7"),
    ("global=NoRandom/local=BLINDER", 643432312, "bbf2fe3a7613792945b640f96f8f1802b0b4d304"),
    ("global=TimeDice/local=FP", 2144652414, "d8584a55ae662d13f98e7a90d0dae37f3c19c063"),
    ("global=TimeDice/local=BLINDER", 1563542107, "c3f91d1fc9fd6e3e7a782cb603bbe958ff125da9"),
}

PINNED_FIG12_CELLS = {
    ("alpha=0.16/policy=norandom", "2bb645f0fa087ae07bf73eec5e2b0922462a2792"),
    ("alpha=0.16/policy=timedice-uniform", "08045df14eaf0bb9b910151ea1b3509414bb6470"),
    ("alpha=0.16/policy=timedice", "21643ab4191126b1894ca0490e15b033397cca60"),
    ("alpha=0.08/policy=norandom", "e8d212db6eeac903d9d606815bea008f198fe202"),
    ("alpha=0.08/policy=timedice-uniform", "56f76f7289c70786aeebe8b11159a64ac49493cc"),
    ("alpha=0.08/policy=timedice", "ea8cd1169d4262f2c2441eb761d26dede59a8421"),
}


class TestHashNeutrality:
    @pytest.mark.parametrize("kwargs,digest", PINNED_SPEC_HASHES)
    def test_default_scheduler_hashes_pinned(self, kwargs, digest):
        spec = RunSpec(**kwargs)
        assert spec.content_hash() == digest
        assert "scheduler" not in spec.to_dict()

    @pytest.mark.parametrize("kwargs,digest", PINNED_SPEC_HASHES)
    def test_explicit_fp_is_identical_to_omitted(self, kwargs, digest):
        implicit = RunSpec(**kwargs)
        explicit = RunSpec(**kwargs, scheduler="fp")
        assert explicit == implicit
        assert explicit.to_dict() == implicit.to_dict()
        assert explicit.content_hash() == digest

    def test_non_default_scheduler_changes_hash_and_round_trips(self):
        base = RunSpec(**PINNED_SPEC_HASHES[0][0])
        for name in ("edf", "reorder", "blinder"):
            import repro.baselines.blinder  # noqa: F401 — registers "blinder"

            spec = dataclasses.replace(base, scheduler=name)
            assert spec.to_dict()["scheduler"] == name
            assert spec.content_hash() != base.content_hash()
            assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            dataclasses.replace(RunSpec(**PINNED_SPEC_HASHES[0][0]), scheduler="cfs")


class TestCampaignCellsPinned:
    def test_defense_matrix_legacy_cells(self):
        spec = defense_matrix.campaign()
        got = {(c.key, c.params["seed"], c.content_hash()) for c in spec.cells}
        assert got == PINNED_DEFENSE_CELLS

    def test_defense_matrix_scheduler_rows(self):
        spec = defense_matrix.campaign(schedulers=("fp", "edf", "reorder"))
        assert len(spec.cells) == 8
        legacy = {(c.key, c.params["seed"], c.content_hash()) for c in spec.cells
                  if "scheduler" not in c.params}
        assert legacy == PINNED_DEFENSE_CELLS
        extra = [c for c in spec.cells if "scheduler" in c.params]
        assert {c.key for c in extra} == {
            "global=NoRandom/local=EDF",
            "global=NoRandom/local=REORDER",
            "global=TimeDice/local=EDF",
            "global=TimeDice/local=REORDER",
        }
        for cell in extra:
            # scheduler reaches the embedded spec => folded into the hash
            assert cell.params["runspec"]["scheduler"] == cell.params["scheduler"]
            assert cell.params["seed"] == derive_seed(5, cell.key)
        assert len({c.content_hash() for c in spec.cells}) == 8

    def test_fig12_legacy_cells(self):
        spec = fig12_accuracy.sweep_campaign()
        got = {(c.key, c.content_hash()) for c in spec.cells}
        assert got == PINNED_FIG12_CELLS

    def test_fig12_scheduler_rows_suffix_keys(self):
        spec = fig12_accuracy.sweep_campaign(schedulers=("fp", "edf"))
        assert len(spec.cells) == 12
        legacy = {(c.key, c.content_hash()) for c in spec.cells
                  if "scheduler" not in c.params}
        assert legacy == PINNED_FIG12_CELLS
        extra = [c for c in spec.cells if "scheduler" in c.params]
        assert all(c.key.endswith("/scheduler=edf") for c in extra)
        assert all(c.params["runspec"]["scheduler"] == "edf" for c in extra)


def _batch_spec(scheduler="fp", seed=7):
    return RunSpec(
        system=SystemSpec.named("three_partition"),
        policy="timedice",
        seed=seed,
        horizon=80_000,
        scheduler=scheduler,
    )


def _campaign(scheduler):
    cells = [
        CampaignCell(f"s{seed}", "repro.runner.tasks:simulate_cell",
                     {"runspec": _batch_spec(scheduler, seed).to_dict()})
        for seed in (7, 8, 9)
    ]
    return CampaignSpec(name=f"sched-{scheduler}", cells=cells)


class TestBatchFallback:
    def test_scheduler_reason(self):
        assert batch_compatible(_batch_spec("edf")) == "scheduler"
        assert batch_compatible(_batch_spec("fp")) is None

    def test_non_fp_campaign_never_groups(self):
        """Grouping takes fp cells onto the batch engine, never edf ones."""
        for scheduler, grouped in (("edf", False), ("fp", True)):
            with mock.patch.object(runner_tasks, "simulate_batch",
                                   wraps=runner_tasks.simulate_batch) as spy:
                run_campaign(_campaign(scheduler), jobs=1)
            assert spy.called is grouped, scheduler

    def test_fallback_scalar_parity(self):
        """A non-fp campaign produces exactly the per-cell scalar runs."""
        campaign = _campaign("edf")
        result = run_campaign(campaign, jobs=1)
        assert result.results == {
            cell.key: runner_tasks.simulate_cell(cell.params) for cell in campaign
        }
        assert all(value["decisions"] > 0 for value in result.results.values()), (
            "runs made no decisions; parity check is vacuous"
        )


class TestEDFVetting:
    def test_edf_scheduler_populates_supply_report(self):
        obs.enable()
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy="norandom",
            seed=3,
            horizon=60_000,
            scheduler="edf",
        )
        sim = Simulator.from_spec(spec)
        # three_partition saturates each partition's supply, so the
        # worst-case EDF feasibility test flags every partition.
        assert set(sim.edf_supply_report) == {"Pi_1", "Pi_2", "Pi_3"}
        assert sim.obs.registry.snapshot()["sched.edf_infeasible"] == 3
        sim.run_until(spec.horizon)  # advisory only: the run still executes

    def test_fp_scheduler_skips_vetting(self):
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy="norandom",
            seed=3,
            horizon=60_000,
        )
        assert Simulator.from_spec(spec).edf_supply_report == {}
