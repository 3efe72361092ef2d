"""Unit tests for the CLI front end."""

import argparse
import json

import pytest

from repro.cli import CAMPAIGN_TARGETS, COMMANDS, build_parser, main


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """The name -> parser map of ``parser``'s subcommand action."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for name in ("fig4", "fig6", "fig12", "fig13", "fig14", "fig15",
                     "fig16", "fig17", "fig18", "table2", "table3", "table4",
                     "table5", "car", "defense-matrix", "load-sweep",
                     "classifiers", "coding", "figures"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_quick_and_full_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--quick", "--full"])

    def test_seed_option(self):
        args = build_parser().parse_args(["fig6", "--seed", "42"])
        assert args.seed == 42

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "fig12", "--jobs", "4", "--no-cache"]
        )
        assert args.experiment == "campaign"
        assert args.target == "fig12"
        assert args.jobs == 4
        assert args.no_cache is True

    def test_jobs_and_cache_flags_on_plain_subcommands(self):
        args = build_parser().parse_args(
            ["fig12", "--jobs", "2", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 2
        assert args.store == "/tmp/c"  # --cache-dir is an alias of --store
        assert args.no_cache is False

    def test_campaign_without_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign"])

    def test_campaign_with_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "fig99"])

    def test_help_lists_exactly_the_campaign_targets(self):
        # The campaign subparser's choices are built from CAMPAIGN_TARGETS,
        # so adding a target updates `campaign --help` automatically; this
        # pins the two together.
        campaign = _subcommands(build_parser())["campaign"]
        assert set(_subcommands(campaign)) == set(CAMPAIGN_TARGETS)
        help_text = campaign.format_help()
        assert all(name in help_text for name in CAMPAIGN_TARGETS)

    def test_trace_out_option(self, tmp_path):
        target = tmp_path / "trace.json"
        args = build_parser().parse_args(["fig6", "--trace-out", str(target)])
        assert args.trace_out == str(target)

    def test_stats_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["stats", "nosuchpolicy"])


class TestRejectsUnreadOptions:
    """A flag or positional the command never reads is a usage error (exit
    2) before anything runs, is written, or is queued."""

    def _rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        return capsys.readouterr().err

    def test_sim_command_rejects_cluster_flag(self, capsys):
        assert "--lease-s" in self._rejected(["fig6", "--lease-s", "3"], capsys)

    def test_command_without_positionals_rejects_one(self, capsys):
        assert "extra" in self._rejected(["table2", "extra"], capsys)

    def test_submit_rejects_flags_the_ticket_cannot_carry(self, tmp_path, capsys):
        root = tmp_path / "service"
        argv = ["service", "submit", "fig12", "--scheduler", "edf", "--service-root", str(root)]
        assert "--scheduler" in self._rejected(argv, capsys)
        assert not root.exists() or not any(root.rglob("*.json"))

    def test_cache_gc_rejects_no_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert "--no-cache" in self._rejected(["cache", "gc", "--no-cache"], capsys)
        assert list(tmp_path.iterdir()) == []


class TestExecution:
    def test_fig6_quick_runs(self, capsys):
        assert main(["fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[Fig. 6]" in out
        assert "completed in" in out

    def test_table4_quick_runs(self, capsys):
        assert main(["table4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    def test_malformed_faults_leaves_no_listener(self):
        from repro.runner.telemetry import default_listeners

        with pytest.raises(SystemExit, match="--faults"):
            main(["fig6", "--quick", "--faults", "bogus:"])
        assert default_listeners() == []

    def test_every_command_is_callable(self):
        for name, command in COMMANDS.items():
            leaves = command.verbs.values() if command.verbs else [command]
            for leaf in leaves:
                assert callable(leaf.run), name

    def test_stats_quick_prints_metrics(self, capsys):
        import repro.obs as obs

        assert main(["stats", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[stats" in out
        assert "decide.wall_ns" in out
        assert "memo.hits" in out
        assert "spans:" in out
        # stats enables obs only for its own run
        assert not obs.is_enabled()

    def test_trace_out_writes_valid_trace(self, tmp_path, capsys):
        import repro.obs as obs

        target = tmp_path / "trace.json"
        assert main(["fig6", "--quick", "--trace-out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "[trace:" in out
        document = json.loads(target.read_text())
        events = document["traceEvents"]
        assert events, "trace must not be empty"
        assert {e["ph"] for e in events} <= {"M", "X"}
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # schedule lanes for the three-partition example + IDLE...
        assert {"Pi_1", "Pi_2", "Pi_3", "IDLE"} <= lanes
        # ...and scheduler-internal span lanes
        assert "decide" in lanes
        assert not obs.is_enabled()
        assert obs.trace_capture() is None

    def test_figures_writes_svgs(self, tmp_path, capsys):
        assert main(["figures", "--quick", "--out", str(tmp_path / "figs")]) == 0
        written = list((tmp_path / "figs").glob("*.svg"))
        assert len(written) >= 5
        for path in written:
            assert path.read_text().startswith("<svg")
