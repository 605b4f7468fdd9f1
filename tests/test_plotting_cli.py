"""Tests for the ASCII plotting helpers and the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.plotting import ascii_plot, sparkline
from repro.experiments.report import Series


def make_series(name="s", points=((0, 0.0), (1, 1.0), (2, 4.0))):
    series = Series(name)
    for x, y in points:
        series.add(x, y)
    return series


class TestAsciiPlot:
    def test_contains_markers_title_and_legend(self):
        chart = ascii_plot([make_series("quadratic")], title="demo", x_label="x", y_label="y")
        assert "demo" in chart
        assert "*" in chart
        assert "quadratic" in chart
        assert "[x: x]" in chart and "[y: y]" in chart

    def test_multiple_series_use_distinct_markers(self):
        chart = ascii_plot([make_series("a"), make_series("b", ((0, 1.0), (2, 2.0)))])
        assert "*" in chart and "o" in chart

    def test_constant_series_does_not_crash(self):
        chart = ascii_plot([make_series("flat", ((0, 1.0), (1, 1.0)))])
        assert "flat" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([])
        with pytest.raises(ValueError):
            ascii_plot([make_series()], width=5)
        with pytest.raises(ValueError):
            ascii_plot([Series("empty")])

    def test_plot_named_series_subset(self):
        curves = {"a": make_series("a"), "b": make_series("b", ((0, 9.0), (2, 9.0)))}
        chart = ascii_plot([curves[name] for name in ["a"]])
        assert chart.splitlines()[-1] == "* a"
        assert "o" not in chart


class TestSparkline:
    def test_length_and_monotone_blocks(self):
        line = sparkline([0.0, 0.5, 1.0], width=3)
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"

    def test_downsamples_long_series(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) == 50

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("estimate", "plan", "table3", "table4", "table5",
                        "figure1", "figure6", "figure11a", "convergence"):
            args = parser.parse_args([command] if command not in ("estimate", "plan") else [command])
            assert args.command == command

    def test_estimate_command(self, capsys):
        assert main(["estimate", "--model", "7B", "--gpus", "8", "--seqlen-k", "64"]) == 0
        output = capsys.readouterr().out
        assert "Memo" in output and "Megatron-LM" in output and "DeepSpeed" in output
        assert "MFU" in output

    def test_plan_command(self, capsys):
        assert main(["plan", "--model", "7B", "--gpus", "8", "--seqlen-k", "128",
                     "--tp", "4", "--cp", "2"]) == 0
        output = capsys.readouterr().out
        assert "offload fraction alpha" in output
        assert "rounding buffers" in output

    def test_table3_command_subset(self, capsys):
        assert main(["table3", "--models", "7B", "--seqlens-k", "64,256"]) == 0
        output = capsys.readouterr().out
        assert "64K" in output and "256K" in output and "average MFU" in output

    def test_figure6_command(self, capsys):
        assert main(["figure6"]) == 0
        assert "FlashAttention share" in capsys.readouterr().out

    def test_convergence_command(self, capsys):
        assert main(["convergence", "--iterations", "5"]) == 0
        output = capsys.readouterr().out
        assert "maximum divergence" in output
        assert "0.000e+00" in output or "e-1" in output

    def test_sim_pipeline_command_all_schedules(self, capsys):
        assert main(["sim-pipeline", "--model", "7B", "--gpus", "8", "--seqlen-k", "64",
                     "--pp", "4", "--tp", "2", "--micro-batches", "8",
                     "--schedule", "all"]) == 0
        output = capsys.readouterr().out
        assert "Per-stage costs" in output
        assert "grad-wt W" in output
        for name in ("gpipe", "1f1b", "interleaved", "zb-h1"):
            assert name in output

    def test_sim_pipeline_zb_h1_only(self, capsys):
        assert main(["sim-pipeline", "--model", "7B", "--gpus", "8", "--seqlen-k", "64",
                     "--pp", "4", "--tp", "2", "--micro-batches", "8",
                     "--schedule", "zb-h1"]) == 0
        output = capsys.readouterr().out
        assert "zb-h1" in output

    def test_sim_pipeline_uniform_stages(self, capsys):
        assert main(["sim-pipeline", "--model", "7B", "--gpus", "8", "--seqlen-k", "64",
                     "--pp", "2", "--tp", "4", "--micro-batches", "8",
                     "--schedule", "all", "--uniform-stages"]) == 0
        output = capsys.readouterr().out
        for name in ("gpipe", "1f1b", "interleaved", "zb-h1", "zb-v"):
            assert name in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["estimate", "--seed", "-1"],
        ["estimate", "--ci-halfwidth", "nan"],
        ["sim-pipeline", "--jitter", "0.05", "--seed", "-1"],
        ["sim-pipeline", "--jitter", "0.05", "--ci-halfwidth", "nan"],
        ["sim-pipeline", "--replicas", "0"],
        ["estimate", "--gpus", "0"],
        ["estimate", "--seqlen-k", "0"],
        ["sim-pipeline", "--tp", "0"],
        ["sim-pipeline", "--pp", "0"],
        ["sim-pipeline", "--chunks", "0"],
        ["sim-pipeline", "--micro-batches", "0"],
        ["estimate", "--model", "7B", "--seqlen-k", "16", "--gpus", "2",
         "--jitter", "compute=1e308"],
        ["estimate", "--model", "7B", "--seqlen-k", "16", "--gpus", "2",
         "--jitter", "straggler=0.5:0.0001"],
        ["sim-pipeline", "--jitter", "compute=1e308"],
        ["sim-pipeline", "--jitter", "straggler=0.5:0.0001"],
    ], ids=" ".join)
    def test_bad_search_flag_is_a_one_line_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("failures", [[], ["--mtbf", "43200"]], ids=["plain", "mtbf"])
    def test_sim_pipeline_null_jitter_prints_the_deterministic_run(self, failures, capsys):
        argv = ["sim-pipeline", "--model", "7B", "--gpus", "8", "--seqlen-k", "64",
                "--pp", "4", "--tp", "2", "--micro-batches", "8", "--schedule", "zb-h1",
                *failures]
        assert main(argv) == 0
        deterministic = capsys.readouterr().out
        assert main(argv + ["--jitter", "0"]) == 0
        assert capsys.readouterr().out == deterministic


GOLDEN = Path(__file__).parent / "golden"


class TestCliGolden:
    """Stochastic CLI runs, byte for byte against their committed stdout."""

    @pytest.mark.parametrize("name, argv", [
        ("estimate_stochastic.txt", [
            "estimate", "--model", "7B", "--gpus", "8", "--seqlen-k", "16",
            "--jitter", "0.05", "--mtbf", "43200", "--recovery", "write=30,restart=120",
            "--objective", "ttrain_p99", "--replicas", "4", "--seed", "3",
            "--ci-halfwidth", "0.5", "--stability-replicas", "2",
            "--target-iterations", "50", "--pareto",
        ]),
        # The failure-process smoke line of the CI docs job.
        ("sim_pipeline_failure_smoke.txt", [
            "sim-pipeline", "--model", "7B", "--gpus", "8", "--seqlen-k", "64",
            "--pp", "4", "--tp", "2", "--micro-batches", "8", "--schedule", "all",
            "--jitter", "0.05", "--replicas", "12", "--seed", "7",
            "--failures", "mtbf=43200,correlated=0.2:8,preempt=21600:120",
            "--recovery", "write=30,restart=120", "--objective", "ttrain_p99",
            "--ci-halfwidth", "0.5",
        ]),
    ])
    def test_stdout_matches_golden(self, name, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text()
