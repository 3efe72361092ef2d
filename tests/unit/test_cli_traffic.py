"""Parse-only check of every ``python -m repro ...`` command line the repo
issues: the CI workflow, the smoke scripts, the service dispatcher, and the
README and docs examples.

Each argv must parse, select the expected command and runner, and hand
that runner (and ``main``'s sinks) the expected value for every dest it
reads. The CI and script argvs are read from the files themselves, so the
parser cannot drift from them unnoticed.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import build_parser
from repro.service import Dispatcher

REPO_ROOT = Path(__file__).resolve().parents[2]
PREFIX = "python -m repro "

# -- where the argvs come from ----------------------------------------------


def _ci_argvs():
    """``python -m repro`` argvs in the CI workflow's ``run:`` steps
    (folded ``>-`` blocks joined, pipes cut)."""
    lines = (REPO_ROOT / ".github/workflows/ci.yml").read_text().splitlines()
    for i, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not match:
            continue
        indent, head = len(match.group(1)), match.group(2)
        commands = [head]
        if head in (">-", ">", "|", "|-"):
            block = []
            for following in lines[i + 1:]:
                if following.strip() and len(following) - len(following.lstrip()) <= indent:
                    break
                block.append(following.strip())
            commands = [" ".join(block)] if head.startswith(">") else block
        for command in commands:
            if PREFIX in command:
                yield shlex.split(command.split(PREFIX, 1)[1].split(" | ")[0])


def _doc_argvs(name):
    """Command lines in a Markdown file's code blocks (continuations joined,
    ``#`` comments dropped)."""
    text = (REPO_ROOT / name).read_text().replace("\\\n", " ")
    for line in text.splitlines():
        if line.startswith(PREFIX):
            yield shlex.split(line[len(PREFIX):], comments=True)


def _cluster_smoke_argvs():
    """Every ``[sys.executable, "-m", "repro", ...]`` list in
    ``scripts/cluster_smoke.py``, evaluated at the script's defaults."""
    path = REPO_ROOT / "scripts/cluster_smoke.py"
    names = {
        "args": SimpleNamespace(target="load-sweep", seed=3, lease_s=2.0),
        "service_root": Path("/w/service"),
        "port": 7341,
        "cluster_url": "sqlite:/w/cluster.db",
        "ref_url": "sqlite:/w/ref.db",
        "events_path": Path("/w/obs/events.jsonl"),
        "obs_dir": Path("/w/obs"),
        "name": "w0",
    }
    head = ["sys.executable", "'-m'", "'repro'"]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.List) and [ast.unparse(e) for e in node.elts[:3]] == head:
            yield [
                str(eval(compile(ast.Expression(e), str(path), "eval"), dict(names)))
                for e in node.elts[3:]
            ]


def _kill_resume_argvs():
    path = REPO_ROOT / "scripts/kill_resume_check.py"
    spec = importlib.util.spec_from_file_location("kill_resume_check", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for obs_dir in (None, Path("/w/obs")):
        argv = script._campaign_argv("load-sweep", 3, "sqlite:/w/store.db", "/w/journals", obs_dir)
        yield argv[3:]  # drop sys.executable -m repro


def _issued():
    sources = [("ci", _ci_argvs()), ("cluster_smoke", _cluster_smoke_argvs()),
               ("kill_resume_check", _kill_resume_argvs())]
    sources += [(name, _doc_argvs(name)) for name in (
        "README.md", "docs/SERVICE.md", "docs/OBSERVABILITY.md", "docs/FAULTS.md"
    )]
    return sorted({shlex.join(argv) for _, argvs in sources for argv in argvs})


# -- what each runner reads, at its defaults ----------------------------------

TABLE2 = cli.COMMANDS["table2"].run

SINKS = {"faults": None, "trace_out": None, "events_out": None, "metrics_dir": None,
         "telemetry_out": None}
SIM = {"scale": "default", "seed": 3, **SINKS}
CAMPAIGN = {**SIM, "jobs": 1, "no_cache": False, "store": None, "resume": False,
            "journal_dir": None}

READS = {
    cli._run_fig4: CAMPAIGN,
    cli._run_fig6: SIM,
    cli._run_fig12: {**CAMPAIGN, "scheduler": None},
    cli._run_fig15: SIM,
    cli._run_fig18: SIM,
    TABLE2: SIM,
    cli._run_defense_matrix: {**CAMPAIGN, "scheduler": None},
    cli._run_load_sweep: CAMPAIGN,
    cli._run_robustness: {**CAMPAIGN, "out": None},
    cli._run_figures: {**SIM, "out": None},
    cli._run_stats: {**SIM, "scheduler": None, "policy": "timedice"},
    cli._run_top: {**SINKS, "service_root": None, "events_path": None,
                   "metrics_path": None, "once": False, "interval": 2.0},
    cli._run_service_submit: {**SINKS, "scale": "default", "seed": 3, "no_cache": False,
                              "store": None, "service_root": None},
    cli._run_service_status: {**SINKS, "service_root": None, "watch": False,
                              "interval": 2.0},
    cli._run_service_drain: {**SINKS, "service_root": None, "jobs": 1, "store": None},
    cli._run_cluster_serve: {**SINKS, "service_root": None, "jobs": 1, "no_cache": False,
                             "store": None, "host": "127.0.0.1", "port": 7341,
                             "lease_s": 10.0, "lease_cells": 0},
    cli._run_cluster_worker: {**SINKS, "jobs": 1, "worker_name": None, "lease_cells": 0,
                              "reconnect_s": 60.0},
    cli._run_cache_ls: {**SINKS, "store": None},
    cli._run_cache_gc: {**SINKS, "store": None},
    cli._run_cache_migrate: {**SINKS},
}

# argv -> (runner, the dests it sets away from READS[runner]'s defaults)
TRAFFIC = {
    # .github/workflows/ci.yml
    "top --once --events-out obs-sqlite/events.jsonl --metrics-dir obs-sqlite/metrics": (
        cli._run_top,
        {"once": True, "events_path": "obs-sqlite/events.jsonl",
         "metrics_path": "obs-sqlite/metrics"},
    ),
    "campaign robustness-sweep --scale quick --jobs 2 --no-cache --out robustness_summary.json": (
        cli._run_robustness,
        {"target": "robustness-sweep", "scale": "quick", "jobs": 2, "no_cache": True,
         "out": "robustness_summary.json"},
    ),
    "defense-matrix --quick --jobs 2 --no-cache --scheduler edf": (
        cli._run_defense_matrix,
        {"scale": "quick", "jobs": 2, "no_cache": True, "scheduler": "edf"},
    ),
    # scripts/cluster_smoke.py
    "service submit load-sweep --quick --seed 3 --service-root /w/service": (
        cli._run_service_submit,
        {"target": "load-sweep", "scale": "quick", "service_root": "/w/service"},
    ),
    "cluster serve --service-root /w/service --port 7341 --lease-s 2.0 --lease-cells 2 "
    "--jobs 2 --store sqlite:/w/cluster.db --events-out /w/obs/events.jsonl "
    "--metrics-dir /w/obs/metrics": (
        cli._run_cluster_serve,
        {"service_root": "/w/service", "lease_s": 2.0, "lease_cells": 2, "jobs": 2,
         "store": "sqlite:/w/cluster.db", "events_out": "/w/obs/events.jsonl",
         "metrics_dir": "/w/obs/metrics"},
    ),
    "cluster worker 127.0.0.1:7341 --jobs 1 --worker-name w0 --reconnect-s 20": (
        cli._run_cluster_worker,
        {"address": "127.0.0.1:7341", "worker_name": "w0", "reconnect_s": 20.0},
    ),
    "campaign load-sweep --scale quick --seed 3 --jobs 2 --store sqlite:/w/ref.db": (
        cli._run_load_sweep,
        {"target": "load-sweep", "scale": "quick", "jobs": 2, "store": "sqlite:/w/ref.db"},
    ),
    "top --once --events-out /w/obs/events.jsonl --metrics-dir /w/obs/metrics "
    "--service-root /w/service": (
        cli._run_top,
        {"once": True, "events_path": "/w/obs/events.jsonl",
         "metrics_path": "/w/obs/metrics", "service_root": "/w/service"},
    ),
    # scripts/kill_resume_check.py
    "campaign load-sweep --scale quick --seed 3 --jobs 2 --store sqlite:/w/store.db "
    "--resume --journal-dir /w/journals": (
        cli._run_load_sweep,
        {"target": "load-sweep", "scale": "quick", "jobs": 2, "store": "sqlite:/w/store.db",
         "resume": True, "journal_dir": "/w/journals"},
    ),
    "campaign load-sweep --scale quick --seed 3 --jobs 2 --store sqlite:/w/store.db "
    "--resume --journal-dir /w/journals --events-out /w/obs/events.jsonl "
    "--metrics-dir /w/obs/metrics": (
        cli._run_load_sweep,
        {"target": "load-sweep", "scale": "quick", "jobs": 2, "store": "sqlite:/w/store.db",
         "resume": True, "journal_dir": "/w/journals",
         "events_out": "/w/obs/events.jsonl", "metrics_dir": "/w/obs/metrics"},
    ),
    # README.md
    "fig12": (cli._run_fig12, {}),
    "table2": (TABLE2, {}),
    "fig15 --full": (cli._run_fig15, {"scale": "full"}),
    "fig18": (cli._run_fig18, {}),
    "figures --out figures/": (cli._run_figures, {"out": "figures/"}),
    "defense-matrix --quick --scheduler edf": (
        cli._run_defense_matrix, {"scale": "quick", "scheduler": "edf"},
    ),
    "fig12 --quick --scheduler reorder": (
        cli._run_fig12, {"scale": "quick", "scheduler": "reorder"},
    ),
    "campaign fig12 --jobs 4": (cli._run_fig12, {"target": "fig12", "jobs": 4}),
    "fig12 --jobs 4 --seed 7": (cli._run_fig12, {"jobs": 4, "seed": 7}),
    "fig12 --no-cache": (cli._run_fig12, {"no_cache": True}),
    "campaign load-sweep --store sqlite:results.db --resume": (
        cli._run_load_sweep,
        {"target": "load-sweep", "store": "sqlite:results.db", "resume": True},
    ),
    "service submit load-sweep --scale quick --seed 7": (
        cli._run_service_submit, {"target": "load-sweep", "scale": "quick", "seed": 7},
    ),
    "service submit load-sweep --scale quick": (
        cli._run_service_submit, {"target": "load-sweep", "scale": "quick"},
    ),
    "service status": (cli._run_service_status, {}),
    "service drain --jobs 4": (cli._run_service_drain, {"jobs": 4}),
    "cache migrate json:.repro_cache sqlite:results.db": (
        cli._run_cache_migrate,
        {"source": "json:.repro_cache", "destination": "sqlite:results.db"},
    ),
    "cluster serve --port 7341 --store sqlite:results.db": (
        cli._run_cluster_serve, {"store": "sqlite:results.db"},
    ),
    "cluster worker head:7341 --jobs 8": (
        cli._run_cluster_worker, {"address": "head:7341", "jobs": 8},
    ),
    "stats --quick": (cli._run_stats, {"scale": "quick"}),
    "fig6 --quick --trace-out trace.json": (
        cli._run_fig6, {"scale": "quick", "trace_out": "trace.json"},
    ),
    "campaign robustness-sweep --jobs 4": (
        cli._run_robustness, {"target": "robustness-sweep", "jobs": 4},
    ),
    "fig12 --faults overrun:Pi_3:rate=0.5,mag=3": (
        cli._run_fig12, {"faults": "overrun:Pi_3:rate=0.5,mag=3"},
    ),
    # docs/SERVICE.md
    "cache ls --store sqlite:results.db": (cli._run_cache_ls, {"store": "sqlite:results.db"}),
    "cache gc --store sqlite:results.db": (cli._run_cache_gc, {"store": "sqlite:results.db"}),
    "campaign load-sweep --quick --store sqlite:results.db --resume": (
        cli._run_load_sweep,
        {"target": "load-sweep", "scale": "quick", "store": "sqlite:results.db",
         "resume": True},
    ),
    "service submit load-sweep --scale quick --seed 7 --store sqlite:results.db": (
        cli._run_service_submit,
        {"target": "load-sweep", "scale": "quick", "seed": 7, "store": "sqlite:results.db"},
    ),
    "cluster serve --port 7341 --store sqlite:results.db --jobs 2": (
        cli._run_cluster_serve, {"store": "sqlite:results.db", "jobs": 2},
    ),
    "cache ls --store remote:head:7341": (cli._run_cache_ls, {"store": "remote:head:7341"}),
    # docs/OBSERVABILITY.md
    "stats tdma --seed 7": (cli._run_stats, {"policy": "tdma", "seed": 7}),
    "campaign fig4 --quick --jobs 4 --events-out events.jsonl": (
        cli._run_fig4,
        {"target": "fig4", "scale": "quick", "jobs": 4, "events_out": "events.jsonl"},
    ),
    "service drain --jobs 4 --metrics-dir metrics/": (
        cli._run_service_drain, {"jobs": 4, "metrics_dir": "metrics/"},
    ),
    "top": (cli._run_top, {}),
    "top --once": (cli._run_top, {"once": True}),
    "top --service-root R --events-out E --metrics-dir M": (
        cli._run_top, {"service_root": "R", "events_path": "E", "metrics_path": "M"},
    ),
    "service status --watch": (cli._run_service_status, {"watch": True}),
    # docs/FAULTS.md
    "campaign robustness-sweep --scale quick --jobs 4 --out robustness_summary.json": (
        cli._run_robustness,
        {"target": "robustness-sweep", "scale": "quick", "jobs": 4,
         "out": "robustness_summary.json"},
    ),
    "fig6 --faults overrun:Pi_2:rate=0.5,mag=3": (
        cli._run_fig6, {"faults": "overrun:Pi_2:rate=0.5,mag=3"},
    ),
    "fig12 --faults 'jitter:Pi_1:mag=500;crash:Pi_3:rate=0.1,len=2'": (
        cli._run_fig12, {"faults": "jitter:Pi_1:mag=500;crash:Pi_3:rate=0.1,len=2"},
    ),
    "load-sweep --faults @robustness_plan.json": (
        cli._run_load_sweep, {"faults": "@robustness_plan.json"},
    ),
}


def _check(argv, runner, overrides):
    args = build_parser().parse_args(argv)
    assert args.experiment == argv[0]
    assert args.run is runner
    expected = {**READS[runner], **overrides}
    assert {dest: getattr(args, dest) for dest in expected} == expected


def test_traffic_table_covers_exactly_the_issued_argvs():
    assert _issued() == sorted(TRAFFIC)


@pytest.mark.parametrize("line", _issued())
def test_issued_argv_parses_to_its_runner(line):
    runner, overrides = TRAFFIC[line]
    _check(shlex.split(line), runner, overrides)


@pytest.mark.parametrize(
    "request_fields, overrides",
    [
        ({}, {}),
        ({"no_cache": True}, {"no_cache": True}),
        ({"store": "sqlite:/w/r.db"}, {"store": "sqlite:/w/r.db"}),
        ({"faults": "overrun:Pi_3:rate=0.5,mag=3"}, {"faults": "overrun:Pi_3:rate=0.5,mag=3"}),
        ({"no_cache": True, "store": "sqlite:/w/r.db", "faults": "crash:Pi_1"},
         {"no_cache": True, "faults": "crash:Pi_1"}),
        ({"scale": "default"}, {"scale": "default"}),
        ({"scale": "full"}, {"scale": "full"}),
    ],
    ids=["plain", "no_cache", "store", "faults", "all", "scale_default", "scale_full"],
)
def test_dispatcher_argv_parses_to_its_runner(tmp_path, request_fields, overrides):
    dispatcher = Dispatcher(tmp_path / "service", jobs=2)
    request = {"target": "load-sweep", "scale": "quick", "seed": 7, **request_fields}
    overrides = {
        "target": "load-sweep", "scale": "quick", "seed": 7, "jobs": 2, "resume": True,
        "journal_dir": str(dispatcher.journal_root), **overrides,
    }
    _check(dispatcher.campaign_argv(request), cli._run_load_sweep, overrides)


def test_dispatcher_argv_rejects_unknown_scale(tmp_path):
    dispatcher = Dispatcher(tmp_path / "service", jobs=2)
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            dispatcher.campaign_argv({"target": "load-sweep", "scale": "huge"})
        )
