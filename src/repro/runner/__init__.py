"""Parallel experiment-campaign runner.

Turns the repeated ``for config in grid: for seed in seeds: simulate(...)``
loops of the experiment modules into declarative, cacheable, parallel
**campaigns**:

- :mod:`repro.runner.spec` — :class:`CampaignSpec`/:class:`CampaignCell`
  grids with stable content hashes;
- :mod:`repro.runner.pool` — :func:`run_campaign`: one supervisor loop,
  in-process or ``ProcessPoolExecutor``-backed, with per-task timeouts,
  bounded exponential-backoff retries, and graceful degradation to
  in-process execution when the pool keeps dying;
- :mod:`repro.runner.cache` — the content-addressed result cache, now a
  shim over :mod:`repro.store` (JSON files or WAL-mode SQLite, selected by
  store URL) keyed on cell hash + code-version salt;
- :mod:`repro.runner.telemetry` — structured progress events, per-worker
  wall-time accounting, live progress line, JSON dumps;
- :mod:`repro.runner.seeding` — :func:`derive_seed`, guaranteeing parallel
  and serial runs of the same campaign are bit-identical.

Quickstart::

    from repro.runner import CampaignSpec, run_campaign

    spec = CampaignSpec.from_grid(
        "demo",
        task="repro.runner.tasks:checksum_cell",
        axes={"seed": [1, 2, 3], "spin": [10_000]},
    )
    result = run_campaign(spec, jobs=4, cache=".repro_cache")
    print(result.telemetry.progress_line())
"""

from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    MISS,
    ResultCache,
    ResultStore,
    as_cache,
    code_salt,
    open_store,
)
from repro.runner.pool import (
    CampaignError,
    CampaignResult,
    CellOutcome,
    run_campaign,
)
from repro.runner.seeding import derive_seed
from repro.runner.spec import (
    CACHE_SCHEMA,
    CampaignCell,
    CampaignSpec,
    canonical_json,
    default_key,
    grid,
    resolve_task,
)
from repro.runner.telemetry import (
    CampaignTelemetry,
    CellEvent,
    ProgressPrinter,
    add_default_listener,
    drain_session,
    remove_default_listener,
    session_footer,
    session_stats,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "MISS",
    "CampaignCell",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "CampaignTelemetry",
    "CellEvent",
    "CellOutcome",
    "ProgressPrinter",
    "ResultCache",
    "ResultStore",
    "add_default_listener",
    "as_cache",
    "open_store",
    "remove_default_listener",
    "canonical_json",
    "code_salt",
    "default_key",
    "derive_seed",
    "drain_session",
    "grid",
    "resolve_task",
    "run_campaign",
    "session_footer",
    "session_stats",
]
