"""Command-line front end: ``python -m repro <command> [options]``.

Each experiment command regenerates one of the paper's tables or figures as
plain text; ``python -m repro <command> --help`` lists the options that
command reads, and only those. :data:`COMMANDS` is the single source: each
entry names its runner and its option groups, and :func:`build_parser`
turns the table into argparse subparsers. ``campaign``, ``service``,
``cluster`` and ``cache`` dispatch one level further, to a campaign target
(:data:`CAMPAIGN_TARGETS`) or a verb.

See docs/SERVICE.md (campaign service, cluster, result stores),
docs/OBSERVABILITY.md (traces, event logs, metrics, ``top``), docs/FAULTS.md
(``--faults``) and docs/SCHEDULERS.md (``--scheduler``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import repro.obs as obs
from repro.runner import (
    ProgressPrinter,
    add_default_listener,
    drain_session,
    remove_default_listener,
    session_footer,
)
from repro.experiments import (
    classifier_comparison,
    coding_study,
    defense_matrix,
    fig04_feasibility,
    fig06_trace,
    fig12_accuracy,
    fig13_heatmap,
    fig14_distributions,
    fig15_capacity,
    fig18_blinder,
    load_sweep,
    robustness_sweep,
    table2_wcrt,
    table3_car,
    table4_latency,
)


#: Where ``--resume`` keeps campaign journals unless ``--journal-dir`` says
#: otherwise.
DEFAULT_JOURNAL_DIR = ".repro_journal"


def _scale(args: argparse.Namespace, quick: int, default: int, full: int) -> int:
    return {"quick": quick, "default": default, "full": full}[args.scale]


def _profile_sizes(args: argparse.Namespace) -> Tuple[int, ...]:
    return (10, 20, 50) if args.scale == "quick" else (20, 50, 100, 200)


def _store_url(args: argparse.Namespace) -> Optional[str]:
    """The store URL a subcommand should use, or None with ``--no-cache``.

    The default is the historical JSON store under ``.repro_cache/``.
    """
    if args.no_cache:
        return None
    from repro.store import DEFAULT_STORE_URL

    return args.store or DEFAULT_STORE_URL


def _campaign_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """jobs/cache/journal keywords shared by every campaign-backed subcommand."""
    from repro.store import open_store

    url = _store_url(args)
    salt = None
    if url is not None and args.faults:
        # An ambient fault plan changes what every cell computes without
        # appearing in any cell's params — fold its content hash into the
        # cache salt so faulted and nominal results can never be conflated.
        from repro.faults import FaultPlan
        from repro.runner import code_salt

        plan = FaultPlan.parse(args.faults)
        if not plan.is_null:
            salt = code_salt() + "|faults:" + plan.content_hash()
    kwargs: Dict[str, object] = {
        "jobs": args.jobs,
        "cache": open_store(url, salt=salt) if url is not None else None,
    }
    if args.resume or args.journal_dir:
        kwargs["journal"] = args.journal_dir or DEFAULT_JOURNAL_DIR
    return kwargs


def _scheduler_axis(args: argparse.Namespace) -> Tuple[str, ...]:
    """The local-scheduler rows a sweep-style subcommand should run.

    ``--scheduler NAME`` *adds* NAME beside the default fp axis (the paper's
    configuration stays in the output as the baseline); without the flag the
    axis is just ``("fp",)``. Unknown names fail fast with the registered
    set."""
    name = args.scheduler
    if name is None or name == "fp":
        return ("fp",)
    _validate_scheduler(name)
    return ("fp", name)


def _validate_scheduler(name: str) -> str:
    """Fail fast (exit 2) when ``name`` is not a registered local scheduler."""
    import repro.baselines.blinder  # noqa: F401 — registers "blinder"
    from repro.sim.registry import find_local_scheduler, local_scheduler_names

    if find_local_scheduler(name) is None:
        raise SystemExit(
            f"unknown scheduler {name!r}; choose from "
            f"{', '.join(sorted(local_scheduler_names()))}"
        )
    return name


def _run_fig4(args) -> str:
    sizes = _profile_sizes(args)
    messages = _scale(args, 100, 400, 2000)
    return fig04_feasibility.run(
        profile_sizes=sizes, message_windows=messages, seed=args.seed,
        **_campaign_kwargs(args),
    ).format()


def _fig4_panel(args) -> "fig04_feasibility.Fig4Result":
    return fig04_feasibility.run(
        profile_sizes=(20, 50), message_windows=_scale(args, 100, 400, 2000), seed=args.seed
    )


def _run_fig6(args) -> str:
    nr, td = fig06_trace.run_pair(horizon_ms=_scale(args, 150, 300, 1200), seed=args.seed)
    return nr.format() + "\n\n" + td.format()


def _run_fig12(args) -> str:
    sizes = _profile_sizes(args)
    messages = _scale(args, 100, 400, 2000)
    return fig12_accuracy.run(
        profile_sizes=sizes, message_windows=messages, seed=args.seed,
        schedulers=_scheduler_axis(args),
        **_campaign_kwargs(args),
    ).format()


def _run_fig13(args) -> str:
    return fig13_heatmap.run(
        n_windows=_scale(args, 80, 300, 500), seed=args.seed
    ).format()


def _run_fig14(args) -> str:
    return fig14_distributions.run(
        n_windows=_scale(args, 100, 400, 2000), seed=args.seed
    ).format()


def _run_fig15(args) -> str:
    return fig15_capacity.run(
        n_samples=_scale(args, 150, 500, 10_000), seed=args.seed
    ).format()


def _wcrt(args) -> "table2_wcrt.Table2Result":
    return table2_wcrt.run(seconds=_scale(args, 10, 60, 600), seed=args.seed)


def _latency(args) -> "table4_latency.OverheadResult":
    return table4_latency.run(seconds=_scale(args, 3, 10, 60), seed=args.seed)


def _run_fig18(args) -> str:
    return fig18_blinder.run(
        n_windows=_scale(args, 100, 300, 1000),
        profile_windows=_scale(args, 50, 200, 500),
        message_windows=_scale(args, 100, 300, 2000),
        seed=args.seed,
    ).format()


def _run_table3(args) -> str:
    return table3_car.run(
        profile_windows=_scale(args, 60, 150, 500),
        message_windows=_scale(args, 100, 300, 2000),
        responsiveness_seconds=_scale(args, 10, 30, 300),
        seed=args.seed,
    ).format()


def _run_defense_matrix(args) -> str:
    return defense_matrix.run(
        profile_windows=_scale(args, 40, 100, 300),
        message_windows=_scale(args, 80, 200, 1000),
        order_windows=_scale(args, 80, 200, 1000),
        seed=args.seed,
        schedulers=_scheduler_axis(args),
        **_campaign_kwargs(args),
    ).format()


def _run_robustness(args) -> str:
    from repro.faults.spec import FAULT_KINDS

    if args.scale == "quick":
        kinds = ("overrun", "crash")
        intensities = (0.8,)
        policies = ("norandom", "timedice")
    elif args.scale == "full":
        kinds = FAULT_KINDS
        intensities = (0.2, 0.4, 0.6, 0.8, 1.0)
        policies = robustness_sweep.DEFAULT_POLICIES
    else:
        kinds = FAULT_KINDS
        intensities = robustness_sweep.DEFAULT_INTENSITIES
        policies = robustness_sweep.DEFAULT_POLICIES
    result = robustness_sweep.run(
        kinds=kinds,
        intensities=intensities,
        policies=policies,
        profile_windows=_scale(args, 20, 40, 100),
        message_windows=_scale(args, 40, 80, 300),
        seed=args.seed,
        **_campaign_kwargs(args),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result.summary(), handle, indent=2, sort_keys=True)
    return result.format()


def _run_load_sweep(args) -> str:
    return load_sweep.run(
        profile_windows=_scale(args, 40, 100, 300),
        message_windows=_scale(args, 80, 250, 1000),
        seed=args.seed,
        **_campaign_kwargs(args),
    ).format()


def _run_classifiers(args) -> str:
    return classifier_comparison.run(
        profile_windows=_scale(args, 40, 100, 300),
        message_windows=_scale(args, 80, 200, 1000),
        seed=args.seed,
    ).format()


def _run_coding(args) -> str:
    return coding_study.run(
        payload_bits=_scale(args, 24, 48, 200),
        profile_windows=_scale(args, 60, 100, 300),
        seed=args.seed,
    ).format()


def _run_figures(args) -> str:
    """Export SVG renderings of the main figures into --out (default ./figures)."""
    from pathlib import Path

    from repro._time import ms as _ms
    from repro.experiments.render import gantt_svg, heatmap_svg, histogram_svg, series_svg
    from repro.sim.config import RunSpec, SystemSpec
    from repro.sim.engine import Simulator
    from repro.sim.trace import SegmentRecorder

    out = Path(args.out or "figures")
    out.mkdir(parents=True, exist_ok=True)
    written = []

    # Fig. 6: schedule traces.
    horizon = _ms(_scale(args, 150, 300, 600))
    for policy in ("norandom", "timedice"):
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy=policy,
            seed=args.seed,
            horizon=horizon,
        )
        system = spec.build_system()
        recorder = SegmentRecorder()
        Simulator.from_spec(spec, observers=[recorder]).run_until(spec.horizon)
        target = out / f"fig6_{policy}.svg"
        gantt_svg(
            recorder.segments, [p.name for p in system], horizon,
            title=f"Fig. 6 — {policy}", path=target,
        )
        written.append(target)

    # Fig. 4(a)/(b) and Fig. 13 content from one NoRandom + one TimeDice run.
    messages = _scale(args, 100, 300, 600)
    experiment = fig04_feasibility.run(
        profile_sizes=(20,), message_windows=messages, seed=args.seed
    )
    dataset = experiment.dataset
    r_ms = dataset.response_times / 1000.0
    target = out / "fig4a_distributions.svg"
    histogram_svg(
        {
            "Pr(R|X=0)": r_ms[dataset.labels == 0],
            "Pr(R|X=1)": r_ms[dataset.labels == 1],
        },
        title="Fig. 4(a) — NoRandom response times",
        path=target,
    )
    written.append(target)
    target = out / "fig4b_heatmap.svg"
    heatmap_svg(
        dataset.vectors[:80], title="Fig. 4(b) — execution vectors (NoRandom)",
        path=target,
    )
    written.append(target)

    td = fig13_heatmap.run(n_windows=_scale(args, 60, 150, 300), seed=args.seed)
    target = out / "fig13_heatmap_timedice.svg"
    heatmap_svg(
        td.datasets["timedice"].vectors[:80],
        title="Fig. 13 — execution vectors (TimeDiceW)",
        path=target,
    )
    written.append(target)

    # Fig. 12: accuracy curves.
    sizes = _profile_sizes(args)
    sweep = fig12_accuracy.run(
        profile_sizes=sizes, message_windows=messages, seed=args.seed
    )
    curves = {}
    for policy in sweep.policies:
        curves[policy] = [
            (m, sweep.results[("light", policy, "execution-vector", m)])
            for m in sweep.profile_sizes
            if ("light", policy, "execution-vector", m) in sweep.results
        ]
    target = out / "fig12_accuracy_light.svg"
    series_svg(
        curves, title="Fig. 12 — EV-attack accuracy, light load", path=target
    )
    written.append(target)

    return "\n".join(f"wrote {target}" for target in written)


def _run_stats(args) -> str:
    """``stats [policy]`` — run one short simulation with observability on
    and pretty-print its metrics snapshot (engine counters, decide-latency
    histogram, memo counters, span aggregates)."""
    from repro._time import MS
    from repro.sim.config import RunSpec, SystemSpec
    from repro.sim.engine import Simulator
    from repro.sim.registry import find_global_policy, global_policy_names

    policy = args.policy
    # Registry, not the builtin POLICY_NAMES tuple: third-party policies
    # registered before main() runs are first-class stats targets.
    if find_global_policy(policy) is None:
        raise SystemExit(
            f"unknown policy {policy!r} for stats; choose from "
            f"{', '.join(sorted(global_policy_names()))}"
        )
    scheduler = _validate_scheduler(args.scheduler) if args.scheduler else "fp"
    was_enabled = obs.is_enabled()
    if not was_enabled:
        obs.enable()
    try:
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy=policy,
            seed=args.seed,
            horizon=_scale(args, 150, 300, 1200) * MS,
            scheduler=scheduler,
        )
        sim = Simulator.from_spec(spec)
        result = sim.run_until(spec.horizon)
    finally:
        if not was_enabled:
            obs.disable()
    suffix = "" if scheduler == "fp" else f", scheduler={scheduler}"
    title = (
        f"stats — {policy}{suffix}, seed={args.seed}, "
        f"{result.end_time // MS} ms simulated"
    )
    body = obs.format_metrics(result.metrics, sim.obs.spans.summary(), title=title)
    rates = result.rates()
    return body + (
        f"\n  run:\n    decisions = {result.decisions}"
        f"\n    switches = {result.switches}"
        f"\n    decisions_per_sec = {rates['decisions_per_sec']:.1f}"
        f"\n    deadline_misses = {result.deadline_misses}"
    )


def _watch_loop(render: Callable[[], str], interval: float) -> str:
    """Re-render a frame in place until interrupted (``top``, ``--watch``)."""
    try:
        while True:
            sys.stdout.write("\x1b[H\x1b[2J" + render() + "\n")
            sys.stdout.flush()
            time.sleep(max(0.1, interval))
    except KeyboardInterrupt:
        return "(watch stopped)"


def _run_top(args) -> str:
    """``repro top`` — the live fleet console: folds the service root, an
    event log, and a metrics directory into one text dashboard
    (:mod:`repro.obs.console`). ``--once`` renders a single frame and exits
    (scriptable / CI-friendly); otherwise the frame re-renders every
    ``--interval`` seconds until interrupted."""
    from repro.obs.console import gather_fleet_state, render_top
    from repro.service import DEFAULT_SERVICE_ROOT

    root = args.service_root or DEFAULT_SERVICE_ROOT

    def frame() -> str:
        return render_top(
            gather_fleet_state(
                service_root=root,
                events_path=args.events_path,
                metrics_dir=args.metrics_path,
            )
        )

    if args.once:
        return frame()
    return _watch_loop(frame, args.interval)


def _dispatcher(args, **kwargs):
    """The service-queue :class:`~repro.service.Dispatcher` under
    ``--service-root`` (see docs/SERVICE.md)."""
    from repro.service import DEFAULT_SERVICE_ROOT, Dispatcher

    return Dispatcher(args.service_root or DEFAULT_SERVICE_ROOT, **kwargs)


def _run_service_submit(args) -> str:
    dispatcher = _dispatcher(args)
    try:
        ticket = dispatcher.submit(
            args.target,
            scale=args.scale,
            seed=args.seed,
            store=args.store,
            faults=args.faults,
            no_cache=args.no_cache,
        )
    except ValueError as exc:
        raise SystemExit(f"service submit: {exc}")
    return (
        f"submitted ticket {ticket.number:08d}: campaign {args.target} "
        f"(scale={args.scale}, seed={args.seed}) -> {dispatcher.root}"
    )


def _run_service_status(args) -> str:
    dispatcher = _dispatcher(args)

    def render() -> str:
        report = dispatcher.status()
        lines = [f"service root: {report['root']}"]
        for state in ("pending", "active", "done"):
            items = report[state]
            lines.append(f"{state}: {len(items)}")
            for item in items:
                detail = (
                    f"  #{item['ticket']:08d} {item['target']} "
                    f"(scale={item['scale']}, seed={item['seed']})"
                )
                progress = item.get("progress")
                if progress:
                    detail += (
                        f" — {progress['done']}/{progress['total']} cells"
                        f", {progress['pending_cells']} pending"
                    )
                    if progress.get("eta_s") is not None:
                        detail += f", eta {progress['eta_s']:.1f}s"
                if state == "done":
                    flag = "ok" if item.get("ok") else "FAILED"
                    detail += f" — {flag}"
                    if item.get("elapsed_s") is not None:
                        detail += f" in {item['elapsed_s']:.1f}s"
                lines.append(detail)
        return "\n".join(lines)

    if args.watch:
        return _watch_loop(render, args.interval)
    return render()


def _drain(dispatcher):
    """Requeue stranded tickets, drain the queue, and report one line per
    executed ticket (``service drain`` and ``cluster serve``)."""
    recovered = dispatcher.recover()
    report = dispatcher.drain()
    lines = []
    if recovered:
        lines.append(f"recovered {recovered} stranded ticket(s) from active/")
    for item in report.executed:
        flag = "ok" if item["ok"] else f"FAILED ({item.get('error')})"
        lines.append(
            f"#{item['ticket']:08d} {item['target']}: {flag} in {item['elapsed_s']:.1f}s"
        )
    return report, lines


def _run_service_drain(args) -> str:
    report, lines = _drain(_dispatcher(args, jobs=args.jobs, store=args.store))
    if not report.executed:
        lines.append("queue empty: nothing to drain")
    return "\n".join(lines)


def _run_cluster_worker(args) -> str:
    """Connect one worker agent to a coordinator and execute leases until
    the coordinator goes away (bounded reconnect backoff) or the process is
    stopped (see docs/SERVICE.md, "Cluster")."""
    from repro.cluster import WorkerAgent, parse_address

    try:
        address = parse_address(args.address)
    except ValueError as exc:
        raise SystemExit(f"cluster worker: {exc}")
    agent = WorkerAgent(
        address,
        jobs=args.jobs,
        name=args.worker_name,
        lease_cells=args.lease_cells,
        reconnect_s=args.reconnect_s,
    )
    print(f"worker {agent.name} -> {address[0]}:{address[1]}", file=sys.stderr)
    stats = agent.run()
    return (
        f"worker {agent.name}: {stats['leases']} lease(s), "
        f"{stats['completed']} cell(s) completed, {stats['failed']} failed, "
        f"{stats['reconnects']} reconnect(s)"
    )


def _run_cluster_serve(args) -> str:
    """Drain the service queue exactly like ``service drain`` — same
    journal, same store, same status files — but with a
    :class:`~repro.cluster.ClusterCoordinator` installed as the execution
    engine, so campaign cells are leased to connected worker agents instead
    of running on this machine's pool."""
    from repro.cluster import ClusterCoordinator
    from repro.store import open_store

    url = _store_url(args)
    coordinator = ClusterCoordinator(
        host=args.host,
        port=args.port,
        lease_s=args.lease_s,
        lease_cells=args.lease_cells,
        store=open_store(url) if url else None,
    )
    coordinator.start()
    host, port = coordinator.address
    print(f"cluster coordinator listening on {host}:{port}", file=sys.stderr)
    dispatcher = _dispatcher(args, jobs=args.jobs, store=args.store, cluster=coordinator)
    try:
        report, lines = _drain(dispatcher)
    finally:
        coordinator.stop()
    lines.insert(0, f"coordinator {host}:{port}: drained {len(report.executed)} ticket(s)")
    for name, stats in sorted(coordinator.worker_stats().items()):
        lines.append(
            f"worker {name}: jobs={stats['jobs']} leased={stats['leased']} "
            f"completed={stats['completed']} failed={stats['failed']} "
            f"stolen={stats['stolen']}"
        )
    return "\n".join(lines)


def _open_cache(args):
    from repro.store import DEFAULT_STORE_URL, open_store

    return open_store(args.store or DEFAULT_STORE_URL)


def _plural(count: int) -> str:
    return f"entr{'y' if count == 1 else 'ies'}"


def _run_cache_migrate(args) -> str:
    from repro.store import migrate, open_store

    src = open_store(args.source)
    dst = open_store(args.destination)
    copied = migrate(src, dst)
    return f"migrated {copied} {_plural(copied)}: {src.url} -> {dst.url}"


def _run_cache_gc(args) -> str:
    store = _open_cache(args)
    description = store.describe()
    removed = store.gc()
    return (
        f"{store.url}: removed {removed} {_plural(removed)} "
        f"with salts other than {description['current_salt']!r} "
        f"({description['entries'] - removed} kept)"
    )


def _run_cache_ls(args) -> str:
    store = _open_cache(args)
    description = store.describe()
    lines = [f"{description['url']}: {description['entries']} {_plural(description['entries'])}"]
    for salt, count in description["salts"].items():
        marker = " (current)" if salt == description["current_salt"] else ""
        lines.append(f"  salt {salt!r}: {count}{marker}")
    shown = 0
    for entry in store.entries():
        if shown >= 10:
            lines.append(f"  ... and {description['entries'] - shown} more")
            break
        meta = entry.meta
        label = meta.get("campaign", "?")
        key = meta.get("key", "?")
        lines.append(f"  {entry.content_hash[:12]}  {label} / {key}")
        shown += 1
    return "\n".join(lines)


# -- the command table ------------------------------------------------------

Option = Callable[[argparse.ArgumentParser], object]


def _option(*flags: str, **kwargs) -> Option:
    """One argument, added to whichever command parser lists it."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _scale_option(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--quick", dest="scale", action="store_const", const="quick",
        default="default", help="small smoke-test sizes",
    )
    group.add_argument(
        "--full", dest="scale", action="store_const", const="full",
        help="paper-scale sample counts (slow)",
    )
    group.add_argument(
        "--scale", choices=("quick", "default", "full"),
        help="explicit spelling of --quick/--full (--scale quick == --quick)",
    )


SEED = _option("--seed", type=int, default=3, help="simulation seed")
FAULTS = _option(
    "--faults", metavar="SPEC",
    help="run every simulation under this ambient fault plan: "
    "'kind:partition[:rate=..,mag=..,len=..];...' or '@plan.json' "
    "(kinds: overrun, jitter, stall, burst, crash; see docs/FAULTS.md)",
)
EVENTS_OUT = _option(
    "--events-out", metavar="FILE",
    help="append a structured JSON-lines event log of everything this "
    "command does (cells, batch groups, store traffic, service tickets)",
)
METRICS_DIR = _option(
    "--metrics-dir", metavar="DIR",
    help="periodically export per-process metrics snapshots "
    "(metrics-<pid>.prom Prometheus text + metrics-<pid>.json) into DIR",
)
FLEET_SINKS = (EVENTS_OUT, METRICS_DIR)
RUN_SINKS = (
    SEED,
    FAULTS,
    _option(
        "--trace-out", metavar="FILE",
        help="enable repro.obs and write a Chrome/Perfetto trace_event JSON "
        "of every simulation the command runs (schedule lanes + "
        "scheduler-internal spans)",
    ),
    *FLEET_SINKS,
    _option(
        "--telemetry-out", metavar="FILE",
        help="write campaign telemetry snapshots to this JSON file",
    ),
)
SIM = (_scale_option, *RUN_SINKS)

JOBS = _option(
    "--jobs", type=int, default=1, help="parallel worker processes (default 1)"
)
NO_CACHE = _option(
    "--no-cache", action="store_true", help="disable the campaign result store"
)
STORE = _option(
    "--store", "--cache-dir", dest="store", metavar="URL",
    help="campaign result store URL: json:DIR (one file per entry), "
    "sqlite:FILE (WAL database, safe for concurrent writers), "
    "remote:HOST:PORT (a coordinator's store), or a bare path (JSON). "
    "Default json:.repro_cache",
)
STORAGE = (
    JOBS,
    NO_CACHE,
    STORE,
    _option(
        "--resume", action="store_true",
        help="journal campaign progress (crash-safe, append-only) and "
        "resume an interrupted run: cells completed by a killed earlier "
        "run replay from the store and count as 'resumed'",
    ),
    _option(
        "--journal-dir", metavar="DIR",
        help=f"campaign journal directory for --resume (default {DEFAULT_JOURNAL_DIR})",
    ),
)
CAMPAIGN = SIM + STORAGE

SCHEDULER = _option(
    "--scheduler", metavar="NAME",
    help="registered partition-local scheduler (fp, edf, reorder, blinder, "
    "...): 'stats' runs under it; 'defense-matrix' and 'fig12' add it as "
    "comparison rows beside the default fp axis (see docs/SCHEDULERS.md)",
)
SERVICE_ROOT = _option(
    "--service-root", metavar="DIR",
    help="service queue root (default .repro_service)",
)
INTERVAL = _option(
    "--interval", type=float, default=2.0, metavar="SECONDS",
    help="refresh period (default 2.0)",
)
LEASE_CELLS = _option(
    "--lease-cells", type=int, default=0, metavar="N",
    help="cells per cluster lease (serve: cap per request; worker: request "
    "size). 0 = jobs*4 per worker",
)


class Command(NamedTuple):
    """One ``repro`` command: the runner and the options it reads, or —
    for ``campaign``, ``service``, ``cluster`` and ``cache`` — the verbs it
    dispatches to, parsed into ``verb_dest``."""

    run: Optional[Callable[[argparse.Namespace], str]] = None
    options: Tuple[Option, ...] = ()
    verbs: Optional[Dict[str, "Command"]] = None
    verb_dest: str = "verb"


COMMANDS: Dict[str, Command] = {
    "fig4": Command(_run_fig4, CAMPAIGN),
    "fig4a": Command(lambda args: _fig4_panel(args).format_distributions(), SIM),
    "fig4b": Command(lambda args: _fig4_panel(args).format_heatmap(), SIM),
    "fig4c": Command(
        lambda args: fig12_accuracy.accuracy_sweep(
            policies=("norandom",),
            profile_sizes=_profile_sizes(args),
            message_windows=_scale(args, 100, 400, 2000),
            seed=args.seed,
            **_campaign_kwargs(args),
        ).format(),
        CAMPAIGN,
    ),
    "fig6": Command(_run_fig6, SIM),
    "fig12": Command(_run_fig12, CAMPAIGN + (SCHEDULER,)),
    "fig13": Command(_run_fig13, SIM),
    "fig14": Command(_run_fig14, SIM),
    "fig15": Command(_run_fig15, SIM),
    "fig16": Command(lambda args: _wcrt(args).format_boxplots(), SIM),
    "fig17": Command(lambda args: _latency(args).format_fig17(), SIM),
    "fig18": Command(_run_fig18, SIM),
    "table2": Command(lambda args: _wcrt(args).format(), SIM),
    "table3": Command(_run_table3, SIM),
    "table4": Command(lambda args: _latency(args).format_table4(), SIM),
    "table5": Command(lambda args: _latency(args).format_table5(), SIM),
    "car": Command(_run_table3, SIM),
    "overhead": Command(lambda args: _latency(args).format(), SIM),
    "defense-matrix": Command(_run_defense_matrix, CAMPAIGN + (SCHEDULER,)),
    "load-sweep": Command(_run_load_sweep, CAMPAIGN),
    "robustness-sweep": Command(
        _run_robustness,
        CAMPAIGN + (_option("--out", metavar="FILE", help="also write the summary JSON here"),),
    ),
    "classifiers": Command(_run_classifiers, SIM),
    "coding": Command(_run_coding, SIM),
    "figures": Command(
        _run_figures,
        SIM + (_option("--out", metavar="DIR", help="SVG output directory (default figures)"),),
    ),
    "stats": Command(
        _run_stats,
        SIM + (
            SCHEDULER,
            _option(
                "policy", nargs="?", default="timedice",
                help="registered global policy to run (default timedice)",
            ),
        ),
    ),
    "top": Command(
        _run_top,
        (
            SERVICE_ROOT,
            _option(
                "--events-out", dest="events_path", metavar="FILE",
                help="the event log to read",
            ),
            _option(
                "--metrics-dir", dest="metrics_path", metavar="DIR",
                help="the metrics snapshot directory to read",
            ),
            _option("--once", action="store_true", help="render a single frame and exit"),
            INTERVAL,
        ),
    ),
}

#: Commands expressible as ``python -m repro campaign <target>``.
CAMPAIGN_TARGETS: Dict[str, Command] = {
    name: COMMANDS[name]
    for name in ("fig4", "fig12", "defense-matrix", "load-sweep", "robustness-sweep")
}
CAMPAIGN_TARGETS["robustness_sweep"] = COMMANDS["robustness-sweep"]  # both spellings circulate

COMMANDS.update(
    campaign=Command(verbs=CAMPAIGN_TARGETS, verb_dest="target"),
    service=Command(
        verbs={
            "submit": Command(
                _run_service_submit,
                (
                    _option("target", help="campaign target (as for 'campaign')"),
                    _scale_option, SEED, FAULTS, NO_CACHE, STORE, SERVICE_ROOT,
                    *FLEET_SINKS,
                ),
            ),
            "status": Command(
                _run_service_status,
                (
                    SERVICE_ROOT,
                    _option(
                        "--watch", action="store_true",
                        help="re-render the report in place until interrupted",
                    ),
                    INTERVAL,
                ),
            ),
            "drain": Command(
                _run_service_drain, (SERVICE_ROOT, JOBS, STORE, *FLEET_SINKS)
            ),
        }
    ),
    cluster=Command(
        verbs={
            "serve": Command(
                _run_cluster_serve,
                (
                    SERVICE_ROOT, JOBS, NO_CACHE, STORE,
                    _option(
                        "--host", default="127.0.0.1",
                        help="bind address (use 0.0.0.0 to serve a real fleet; "
                        "default loopback)",
                    ),
                    _option(
                        "--port", type=int, default=7341,
                        help="TCP port (0 picks an ephemeral port; default 7341)",
                    ),
                    _option(
                        "--lease-s", type=float, default=10.0, metavar="SECONDS",
                        help="lease lifetime without a heartbeat before cells "
                        "are stolen back and re-leased (default 10.0)",
                    ),
                    LEASE_CELLS,
                    *FLEET_SINKS,
                ),
            ),
            "worker": Command(
                _run_cluster_worker,
                (
                    _option("address", metavar="HOST:PORT", help="the coordinator"),
                    JOBS,
                    _option(
                        "--worker-name", metavar="NAME",
                        help="stable worker identity (default host-pid)",
                    ),
                    LEASE_CELLS,
                    _option(
                        "--reconnect-s", type=float, default=60.0, metavar="SECONDS",
                        help="cumulative offline budget spent retrying a dead "
                        "coordinator (exponential backoff) before exiting "
                        "(default 60.0)",
                    ),
                    *FLEET_SINKS,
                ),
            ),
        }
    ),
    cache=Command(
        verbs={
            "ls": Command(_run_cache_ls, (STORE,)),
            "gc": Command(_run_cache_gc, (STORE,)),
            "migrate": Command(
                _run_cache_migrate,
                (
                    _option("source", metavar="SRC", help="store URL to copy from"),
                    _option("destination", metavar="DST", help="store URL to copy into"),
                ),
            ),
        }
    ),
)


def _add_command(subparsers, name: str, command: Command) -> None:
    parser = subparsers.add_parser(name)
    for add in command.options:
        add(parser)
    if command.verbs is None:
        parser.set_defaults(run=command.run)
        return
    verbs = parser.add_subparsers(dest=command.verb_dest, required=True)
    for verb, sub in command.verbs.items():
        _add_command(verbs, verb, sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timedice",
        description="Regenerate the TimeDice paper's tables and figures.",
    )
    # The sinks main() applies; a command without one leaves it off.
    parser.set_defaults(
        faults=None, trace_out=None, events_out=None, metrics_dir=None, telemetry_out=None
    )
    commands = parser.add_subparsers(dest="experiment", required=True)
    for name, command in COMMANDS.items():
        _add_command(commands, name, command)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    drain_session()  # footer covers only this invocation's campaigns
    obs_was_enabled = obs.is_enabled()
    captured = None
    plan = None
    if args.faults:
        import repro.faults as faults_mod

        try:
            plan = faults_mod.FaultPlan.parse(args.faults)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"--faults: {exc}")
        faults_mod.activate_plan(plan)
    if args.trace_out:
        obs.enable()
        obs.start_trace_capture()
    if args.events_out:
        obs.enable_event_log(args.events_out)
    if args.metrics_dir:
        obs.start_metrics_exporter(args.metrics_dir)
    # Enrolled last, so a setup error above cannot leave it behind.
    progress = ProgressPrinter(sys.stderr)
    add_default_listener(progress)
    try:
        output = args.run(args)
    finally:
        if plan is not None:
            import repro.faults as faults_mod

            faults_mod.deactivate_plan()
        if args.trace_out:
            captured = obs.stop_trace_capture()
            if not obs_was_enabled:
                obs.disable()
        if args.metrics_dir:
            obs.stop_metrics_exporter()  # final unconditional snapshot
        if args.events_out:
            obs.disable_event_log()
        remove_default_listener(progress)
        progress.close()
    print(output)
    if args.trace_out:
        events = obs.write_trace(args.trace_out, captured)
        print(
            f"[trace: {len(captured)} run(s), {events} events -> {args.trace_out}]"
        )
    if args.events_out:
        print(f"[events -> {args.events_out}]")
    if args.metrics_dir:
        print(f"[metrics -> {args.metrics_dir}]")
    stats = drain_session()
    name = args.experiment if args.experiment != "campaign" else f"campaign {args.target}"
    footer = f"[{name} completed in {time.time() - started:.1f}s"
    if stats:
        footer += f" | {session_footer(stats)}"
    footer += "]"
    print("\n" + footer)
    if args.telemetry_out:
        with open(args.telemetry_out, "w", encoding="utf-8") as handle:
            json.dump([t.snapshot() for t in stats], handle, indent=2, sort_keys=True)
    if args.experiment == "campaign" and stats:
        for t in stats:
            print(f"  {t.progress_line()} [{t.elapsed:.1f}s, jobs={t.jobs}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
