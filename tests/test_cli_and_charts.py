"""The CLI and the ASCII chart renderer."""

import argparse
import dataclasses
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.experiments.ascii_chart import (
    figure_3_1_chart,
    figure_4_2_chart,
    line_chart,
)


#: A bad value for each flag the CLI validates: exit 2 with one line on stderr.
BAD_FLAGS = [
    pytest.param(["serve", "--rate", "0"], "--rate: must be > 0", id="serve-rate"),
    pytest.param(
        ["explain-latency", "--rate", "-5"], "--rate: must be > 0", id="explain-rate"
    ),
    pytest.param(
        ["serve", "--write-mix", "1.5"], "--write-mix: must be in [0, 1]", id="write-mix"
    ),
    pytest.param(
        ["faults", "--plan", "missing.json"], "--plan: no such file", id="faults-plan"
    ),
    pytest.param(
        ["recover", "--write-fraction", "2"],
        "--write-fraction: must be in [0, 1]",
        id="write-fraction",
    ),
    pytest.param(
        ["recover", "--crash-rate", "-0.1"],
        "--crash-rate: must be in [0, 1]",
        id="crash-rate",
    ),
    pytest.param(
        ["recover", "--torn-rate", "nan"], "--torn-rate: must be in [0, 1]", id="torn-rate"
    ),
    pytest.param(
        ["run", "figure_3_1", "--scale", "0"], "--scale: must be > 0", id="run-scale"
    ),
    pytest.param(["workload", "--scale", "0"], "--scale: must be > 0", id="workload-scale"),
    pytest.param(
        ["run", "figure_3_1", "--workers", "-1"], "--workers: must be >= 0", id="workers"
    ),
    pytest.param(
        ["check", "--tracing-identity", "--experiments", "nosuch"],
        "--experiments: unknown experiment name(s) nosuch",
        id="identity-experiments",
    ),
    pytest.param(
        ["recover", "--tail-rate", "2"], "--tail-rate: must be in [0, 1]", id="tail-rate"
    ),
    pytest.param(["faults", "--drop", "2"], "--drop: must be in [0, 1]", id="drop"),
    pytest.param(
        ["faults", "--drop", "-0.5"], "--drop: must be in [0, 1]", id="drop-negative"
    ),
    pytest.param(
        ["faults", "--corrupt", "2"], "--corrupt: must be in [0, 1]", id="corrupt"
    ),
    pytest.param(
        ["faults", "--disk-error", "2"], "--disk-error: must be in [0, 1]", id="disk-error"
    ),
    pytest.param(["faults", "--poison", "2"], "--poison: must be in [0, 1]", id="poison"),
    pytest.param(
        ["faults", "--ic-rate", "2"], "--ic-rate: must be in [0, 1]", id="ic-rate"
    ),
    pytest.param(["faults", "--kill", "-1"], "--kill: must be >= 0", id="kill"),
    pytest.param(
        ["faults", "--processors", "0"], "--processors: must be > 0", id="faults-processors"
    ),
    pytest.param(
        ["recover", "--processors", "0"],
        "--processors: must be > 0",
        id="recover-processors",
    ),
    pytest.param(
        ["serve", "--processors", "0"], "--processors: must be > 0", id="serve-processors"
    ),
    pytest.param(["recover", "--queries", "0"], "--queries: must be > 0", id="queries"),
    pytest.param(
        ["serve", "--max-inflight", "0"], "--max-inflight: must be > 0", id="max-inflight"
    ),
    pytest.param(["serve", "--users", "0"], "--users: must be > 0", id="users"),
    pytest.param(["serve", "--b-domain", "0"], "--b-domain: must be > 0", id="b-domain"),
    pytest.param(
        ["serve", "--queue-limit", "-1"], "--queue-limit: must be >= 0", id="queue-limit"
    ),
    pytest.param(
        ["serve", "--duration-ms", "-5"], "--duration-ms: must be > 0", id="duration-ms"
    ),
    pytest.param(
        ["serve", "--think-ms", "-1", "--loop", "closed"],
        "--think-ms: must be > 0",
        id="think-ms",
    ),
    pytest.param(
        ["serve", "--selectivity", "0"],
        "--selectivity: must be in (0, 1]",
        id="serve-selectivity",
    ),
    pytest.param(
        ["explain-latency", "--window-ms", "0"], "--window-ms: must be > 0", id="window-ms"
    ),
    pytest.param(["explain-latency", "--top", "-1"], "--top: must be >= 0", id="top"),
    pytest.param(
        ["run", "figure_3_1", "--processors", "0"],
        "--processors: every entry must be > 0",
        id="run-processors",
    ),
    pytest.param(
        ["run", "figure_3_1", "--selectivity", "2"],
        "--selectivity: must be in (0, 1]",
        id="run-selectivity",
    ),
    pytest.param(
        ["faults", "--machine", "ring", "--processors", "4", "--kill", "4"],
        "--kill 4 must be below --processors 4",
        id="kill-every-ip",
    ),
    pytest.param(
        ["faults", "--machine", "ring", "--processors", "4", "--kill", "99"],
        "--kill 99 must be below --processors 4",
        id="kill-missing-ip",
    ),
    pytest.param(
        ["serve", "--page-bytes", "64"],
        "page_bytes 64 cannot hold one 288-byte record",
        id="serve-page-bytes",
    ),
    pytest.param(["list", "--bogus"], "unrecognized arguments: --bogus", id="list-flag"),
    pytest.param(
        ["trace", "packets", "--scale", "0"], "--scale: must be > 0", id="trace-scale"
    ),
    pytest.param(
        ["metrics", "packets", "--scale", "0"], "--scale: must be > 0", id="metrics-scale"
    ),
    pytest.param(
        ["check", "--format", "html"], "--format: invalid choice", id="check-format"
    ),
]
_BAD_ARGV = {param.id: param.values[0] for param in BAD_FLAGS}



def _faults_all_incorrect(monkeypatch):
    from repro.experiments import chaos_sweep

    real = chaos_sweep.run_faulted_benchmark
    monkeypatch.setattr(
        chaos_sweep,
        "run_faulted_benchmark",
        lambda *args, **kwargs: {**real(*args, **kwargs), "all_correct": False},
    )


def _recover_trial_not_ok(monkeypatch):
    from repro.recovery import harness

    real = harness.run_crash_trial
    monkeypatch.setattr(
        harness,
        "run_crash_trial",
        lambda **kwargs: dataclasses.replace(real(**kwargs), byte_identical=False),
    )


def _lint_finds_one(monkeypatch):
    from repro.check import lint

    finding = lint.Finding("R002", "repro/sim/hot.py", 2, 4, "wall-clock read")
    monkeypatch.setattr(lint, "lint_paths", lambda paths: [finding])


def _lint_self_test_broken(monkeypatch):
    from repro.check import lint

    monkeypatch.setattr(lint, "self_test", lambda: ["R001: seeded violation not detected"])


def _tracing_changes_output(monkeypatch):
    from repro.check import identity

    monkeypatch.setattr(
        identity,
        "render_experiment",
        lambda name: "traced" if obs.current().spans is not None else "plain",
    )


_TINY_SERVE = ["--duration-ms", "300", "--scale", "0.02", "--b-domain", "25", "--processors", "2"]
_TINY_FAULTS = ["faults", "--machine", "ring", "--scale", "0.02", "--processors", "4"]
_TINY_RECOVER = ["recover", "--machine", "ring", "--queries", "4", "--scale", "0.02"]
_CHECK_DIR = str(Path(__file__).resolve().parent.parent / "src" / "repro" / "check")

#: (argv, monkeypatch forcing a failure or None, exit code), per subcommand:
#: 0 on a tiny ok run, 1 on an oracle or gate failure, 2 on a usage error.
EXIT_CONTRACT = [
    pytest.param(["list"], None, 0, id="list-ok"),
    pytest.param(_BAD_ARGV["list-flag"], None, 2, id="list-usage"),
    pytest.param(["run", "packets"], None, 0, id="run-ok"),
    pytest.param(_BAD_ARGV["run-scale"], None, 2, id="run-usage"),
    pytest.param(["trace", "packets"], None, 0, id="trace-ok"),
    pytest.param(_BAD_ARGV["trace-scale"], None, 2, id="trace-usage"),
    pytest.param(["metrics", "packets"], None, 0, id="metrics-ok"),
    pytest.param(_BAD_ARGV["metrics-scale"], None, 2, id="metrics-usage"),
    pytest.param(["workload", "--scale", "0.02"], None, 0, id="workload-ok"),
    pytest.param(_BAD_ARGV["workload-scale"], None, 2, id="workload-usage"),
    pytest.param(["check", _CHECK_DIR], None, 0, id="check-ok"),
    pytest.param(["check", "--self-test"], None, 0, id="check-self-test-ok"),
    pytest.param(
        ["check", "--tracing-identity", "--experiments", "packets"],
        None,
        0,
        id="check-identity-ok",
    ),
    pytest.param(["check", _CHECK_DIR], _lint_finds_one, 1, id="check-finding"),
    pytest.param(["check", "--self-test"], _lint_self_test_broken, 1, id="check-self-test-broken"),
    pytest.param(
        ["check", "--tracing-identity", "--experiments", "packets"],
        _tracing_changes_output,
        1,
        id="check-identity-mismatch",
    ),
    pytest.param(_BAD_ARGV["check-format"], None, 2, id="check-usage"),
    pytest.param(_TINY_FAULTS, None, 0, id="faults-ok"),
    pytest.param(_TINY_FAULTS, _faults_all_incorrect, 1, id="faults-mismatch"),
    pytest.param(_BAD_ARGV["drop"], None, 2, id="faults-usage"),
    pytest.param(_TINY_RECOVER, None, 0, id="recover-ok"),
    pytest.param(_TINY_RECOVER, _recover_trial_not_ok, 1, id="recover-mismatch"),
    pytest.param(_BAD_ARGV["queries"], None, 2, id="recover-usage"),
    pytest.param(["serve", *_TINY_SERVE], None, 0, id="serve-ok"),
    pytest.param(_BAD_ARGV["serve-rate"], None, 2, id="serve-usage"),
    pytest.param(["explain-latency", *_TINY_SERVE], None, 0, id="explain-latency-ok"),
    pytest.param(_BAD_ARGV["explain-rate"], None, 2, id="explain-latency-usage"),
]


class TestLineChart:
    def test_contains_title_and_legend(self):
        text = line_chart("My Title", "x", "y", [1, 2, 3], {"alpha": [1.0, 2.0, 3.0]})
        assert "My Title" in text
        assert "alpha" in text
        assert "*" in text

    def test_two_series_get_distinct_markers(self):
        text = line_chart(
            "t", "x", "y", [1, 2], {"a": [1.0, 2.0], "b": [2.0, 1.0]}
        )
        assert "* a" in text and "o b" in text

    def test_axis_extremes_labelled(self):
        text = line_chart("t", "x", "y", [10, 90], {"a": [5.0, 25.0]})
        assert "10" in text and "90" in text
        assert "25" in text and "5" in text

    def test_flat_series_does_not_crash(self):
        text = line_chart("t", "x", "y", [1, 2, 3], {"a": [7.0, 7.0, 7.0]})
        assert "*" in text

    def test_single_point(self):
        text = line_chart("t", "x", "y", [5], {"a": [3.0]})
        assert "*" in text

    def test_empty_data(self):
        assert "(no data)" in line_chart("t", "x", "y", [], {})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            line_chart("t", "x", "y", [1, 2], {"a": [1.0]})

    def test_marker_rows_monotone_for_increasing_series(self):
        text = line_chart("t", "x", "y", [1, 2, 3], {"a": [1.0, 2.0, 3.0]}, width=30, height=9)
        rows_with_marker = [i for i, line in enumerate(text.split("\n")) if "*" in line]
        assert rows_with_marker == sorted(rows_with_marker)

    def test_figure_3_1_chart_wrapper(self):
        rows = [
            {"processors": 5, "page_ms": 100.0, "relation_ms": 200.0},
            {"processors": 10, "page_ms": 60.0, "relation_ms": 150.0},
        ]
        text = figure_3_1_chart(rows)
        assert "page-level" in text and "relation-level" in text

    def test_figure_4_2_chart_wrapper(self):
        rows = [
            {"ips": 5, "outer_ring_mbps": 4.0, "cache_level_mbps": 1.0, "disk_level_mbps": 0.5},
            {"ips": 50, "outer_ring_mbps": 16.0, "cache_level_mbps": 4.0, "disk_level_mbps": 3.0},
        ]
        text = figure_4_2_chart(rows)
        assert "outer ring" in text and "disk level" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure_3_1" in out and "project" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "figure_9_9"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_run_section_3_3(self, capsys):
        assert main(["run", "section_3_3"]) == 0
        out = capsys.readouterr().out
        assert "tuple" in out and "10.00" in out

    def test_run_packets(self, capsys):
        assert main(["run", "packets"]) == 0
        assert "True" in capsys.readouterr().out

    def test_run_figure_3_1_small_draws_chart(self, capsys):
        assert main([
            "run", "figure_3_1", "--scale", "0.03", "--selectivity", "0.3",
            "--processors", "2,4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 3.1" in out  # the chart
        assert "ratio" in out  # the table

    def test_run_rejects_wrong_option(self, capsys):
        # section_3_3 takes no --scale option.
        assert main(["run", "section_3_3", "--scale", "0.5"]) == 2
        assert "rejected options" in capsys.readouterr().out
        assert main(["run", "packets", "--processors", "4"]) == 2
        assert capsys.readouterr().out == (
            "experiment 'packets' rejected options: run() got an unexpected "
            "keyword argument 'processors'\n"
        )

    def test_type_error_inside_an_experiment_is_not_a_usage_error(self, monkeypatch):
        # Options are checked against run()'s signature before the call,
        # so an experiment's own TypeError surfaces instead of exiting 2.
        from repro.experiments import packets_demo

        def broken_run():
            raise TypeError("bug inside the experiment")

        monkeypatch.setattr(packets_demo, "run", broken_run)
        with pytest.raises(TypeError, match="bug inside the experiment"):
            main(["run", "packets"])

    def test_workload(self, capsys):
        assert main(["workload", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "rel01" in out and "bench-q10" in out

    def test_parser_int_lists(self):
        parser = build_parser()
        args = parser.parse_args(["run", "figure_3_1", "--processors", "5,10,20"])
        assert args.processors == [5, 10, 20]

    @pytest.mark.parametrize("argv, message", BAD_FLAGS)
    def test_bad_flag_values_are_usage_errors(self, argv, message, tmp_path, monkeypatch, capsys):
        # Exit 2 (usage), never 1 (the oracle-mismatch code), and a
        # one-line error instead of a traceback.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, force, code", EXIT_CONTRACT)
    def test_exit_code_contract(self, argv, force, code, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if force is not None:
            force(monkeypatch)
        try:
            exit_code = main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        assert exit_code == code

    def test_exit_code_contract_covers_every_subcommand(self):
        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for code in (0, 1, 2):
            covered = {param.values[0][0] for param in EXIT_CONTRACT if param.values[2] == code}
            expected = {"check", "faults", "recover"} if code == 1 else set(subparsers.choices)
            assert covered == expected, code
