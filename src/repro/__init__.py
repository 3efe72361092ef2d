"""TimeDice reproduction library.

A faithful, laptop-scale reproduction of *TimeDice: Schedulability-Preserving
Priority Inversion for Mitigating Covert Timing Channels Between Real-time
Partitions* (DSN 2022).

The package is organized bottom-up:

- :mod:`repro.model` — partition/task models and the paper's configurations.
- :mod:`repro.sim` — a discrete-event hierarchical-scheduling simulator (the
  substrate standing in for LITMUS^RT).
- :mod:`repro.core` — the TimeDice algorithm itself: busy-interval analysis,
  candidacy test, candidate search, and the random-selection strategies.
- :mod:`repro.analysis` — worst-case response-time and schedulability analyses.
- :mod:`repro.channel` — the covert timing channel: senders, receivers,
  profiling, Bayesian decoding, and channel-capacity estimation.
- :mod:`repro.ml` — numpy-only classifiers (RBF SVM et al.) for the
  learning-based attack.
- :mod:`repro.baselines` — BLINDER and static TDMA.
- :mod:`repro.car` — the simulated 1/10th-scale self-driving car platform.
- :mod:`repro.experiments` — one module per table/figure of the evaluation.

Quickstart::

    from repro.model.configs import table1_system
    from repro.sim import Simulator, GlobalPolicy
    sim = Simulator(table1_system(), policy=GlobalPolicy.TIMEDICE_WEIGHTED, seed=1)
    result = sim.run_for_ms(1000)
"""

from repro._time import MS, SEC, US, ceil_div, ceil_div0, ms, sec, to_ms, to_sec, us

__version__ = "1.0.0"

from repro.runner.seeding import derive_seed  # noqa: E402 — needs __version__ defined
from repro.obs.registry import reset  # noqa: E402

__all__ = [
    "__version__",
    "derive_seed",
    "reset",
    "US",
    "MS",
    "SEC",
    "ms",
    "us",
    "sec",
    "to_ms",
    "to_sec",
    "ceil_div",
    "ceil_div0",
]
