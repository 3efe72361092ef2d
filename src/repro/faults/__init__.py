"""repro.faults — deterministic fault injection & robustness checking.

Public surface:

- :class:`FaultSpec` / :class:`FaultPlan` — serializable, content-hashable
  descriptions of seeded fault streams (WCET overrun, release jitter,
  partition stall, overload burst, crash/restart);
- :class:`FaultInjector` — the per-run engine hook that applies a plan
  through derived RNG streams, independent of workload and policy RNGs;
- :class:`GuaranteeChecker` — observer attributing every deadline miss to a
  faulty or non-faulty partition;
- :func:`activate_plan` / :func:`deactivate_plan` / :func:`ambient_plan` —
  the process-ambient plan the CLI's ``--faults`` flag installs so every
  simulator built inside any sim-backed subcommand picks it up (same ambient
  pattern as :func:`repro.obs.trace_capture`).

See ``docs/FAULTS.md`` for the fault model and the determinism contract.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.faults.guarantees import GuaranteeChecker
from repro.faults.injector import FaultInjector
from repro.faults.spec import (
    BURST,
    CRASH,
    FAULT_KINDS,
    FAULT_SCHEMA,
    JITTER,
    OVERRUN,
    STALL,
    FaultPlan,
    FaultSpec,
)
from repro.obs.registry import register_reset

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "GuaranteeChecker",
    "FAULT_KINDS",
    "FAULT_SCHEMA",
    "OVERRUN",
    "JITTER",
    "STALL",
    "BURST",
    "CRASH",
    "activate_plan",
    "deactivate_plan",
    "ambient_plan",
    "resolve_fault_plan",
]

# Process-ambient fault plan (the CLI's --faults flag). Simulators built
# without an explicit ``faults=`` argument adopt it at construction, so a
# plan reaches runs buried inside experiment helpers without threading a
# parameter through every call chain. Mirrors repro.obs.trace_capture().
_AMBIENT: Optional[FaultPlan] = None


def activate_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-ambient fault plan and return it."""
    global _AMBIENT
    _AMBIENT = plan
    return plan


@register_reset
def deactivate_plan() -> None:
    """Clear the ambient plan (always called from a ``finally``)."""
    global _AMBIENT
    _AMBIENT = None


def ambient_plan() -> Optional[FaultPlan]:
    """The ambient plan, or None. Engine-internal; tests may stub it."""
    return _AMBIENT


# One-time marker for the explicit-overrides-ambient warning below. Per
# process, not per run: campaign workers rebuild many simulators from the
# same spec and one notice is enough. A forked pool worker inherits it
# already spent, so a fork hook re-arms it: each worker still warns once.
_OVERRIDE_WARNED = False


@register_reset
def _rearm_override_warning() -> None:
    global _OVERRIDE_WARNED
    _OVERRIDE_WARNED = False


os.register_at_fork(after_in_child=_rearm_override_warning)


def resolve_fault_plan(explicit: Optional[FaultPlan], obs=None) -> Optional[FaultPlan]:
    """The single place the explicit-wins fault-plan precedence is decided.

    ``RunSpec.normalized()`` and ``Simulator.__init__`` both route through
    this, so neither layer re-encodes the rule: an explicit plan (the
    ``faults=`` argument / ``RunSpec.faults`` field) beats the
    process-ambient plan installed by :func:`activate_plan` (the CLI's
    ``--faults`` flag).

    When an explicit plan actually *displaces* a different active ambient
    plan — silently dropping what the operator asked for on the command
    line — a one-time :class:`RuntimeWarning` is emitted and, when an obs
    scope is supplied, its gated ``faults.ambient_overridden`` counter is
    ticked. Passing the adopted ambient plan back in (what a normalized
    ``RunSpec`` does) is not an override and stays silent.
    """
    global _OVERRIDE_WARNED
    ambient = _AMBIENT
    if explicit is None:
        return ambient
    if ambient is not None and ambient.content_hash() != explicit.content_hash():
        if obs is not None:
            obs.registry.counter("faults.ambient_overridden").inc()
        if not _OVERRIDE_WARNED:
            _OVERRIDE_WARNED = True
            warnings.warn(
                "an explicit fault plan overrides the active ambient plan "
                f"(ambient {ambient.content_hash()[:12]} vs explicit "
                f"{explicit.content_hash()[:12]}); the ambient plan (e.g. the "
                "CLI's --faults flag) is ignored for this run",
                RuntimeWarning,
                stacklevel=3,
            )
    return explicit
