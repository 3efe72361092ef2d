"""Shared fixtures.

Expensive simulation artifacts (channel datasets, long traces) are cached at
session scope so the many tests that inspect them pay for one run.
"""

from __future__ import annotations

import pytest

import repro
from repro.channel.dataset import ChannelDataset
from repro.experiments.configs import feasibility_experiment
from repro.model.configs import (
    car_system,
    feasibility_system,
    table1_system,
    three_partition_example,
)


@pytest.fixture(autouse=True)
def _isolate_process_wide_observability():
    """Make telemetry and obs assertions order-independent.

    The campaign telemetry session, the repro.obs gate, trace capture, run
    log, event log and metrics exporter, the warn-once flags, the process
    registries and the cluster backend are process-wide; without this
    reset, which campaigns ``session_stats()`` sees (and whether obs is
    enabled) would depend on which tests ran earlier in the pytest session.
    """
    repro.reset()
    yield
    repro.reset()


@pytest.fixture(scope="session")
def table1():
    return table1_system()


@pytest.fixture(scope="session")
def three_partitions():
    return three_partition_example()


@pytest.fixture(scope="session")
def car():
    return car_system()


@pytest.fixture(scope="session")
def feasibility():
    return feasibility_system()


@pytest.fixture(scope="session")
def channel_norandom() -> ChannelDataset:
    """A modest NoRandom channel dataset shared by the attack-layer tests."""
    experiment = feasibility_experiment(profile_windows=60, message_windows=120)
    return experiment.run("norandom", seed=3)


@pytest.fixture(scope="session")
def channel_timedice() -> ChannelDataset:
    """The TimeDiceW counterpart of :func:`channel_norandom`."""
    experiment = feasibility_experiment(profile_windows=60, message_windows=120)
    return experiment.run("timedice", seed=3)
