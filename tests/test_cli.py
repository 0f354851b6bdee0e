"""Tests for the ``python -m repro`` CLI and the figures module."""

import json
import os
import shlex
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.figures import ALL_FIGURES, Table, fig4_table, fig6a_table, format_table

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "results")


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "figures" in capsys.readouterr().out

    def test_unknown_figure_rejected(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["saxpy", "--workers", "3"])
        assert args.command == "saxpy" and args.workers == 3


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "repro.core" in out

    def test_saxpy_runs(self, capsys):
        assert main(["saxpy", "--workers", "2", "--gpus", "1"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_figures_fig4(self, capsys):
        assert main(["figures", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "FIG4" in out and "7nm" in out

    @pytest.mark.parametrize("name", ["fig4", "fig9a"])
    def test_figures_print_the_committed_table(self, capsys, name):
        """The CLI and the benchmarks render one definition: a table
        prints exactly its committed benchmarks/results copy."""
        assert main(["figures", name]) == 0
        with open(os.path.join(RESULTS, f"{name}.txt")) as fh:
            assert capsys.readouterr().out == fh.read()

    def test_figures_into_a_closed_pipe_exit_quietly(self):
        """``repro figures fig4 fig9a | head -1``: head exits after the
        first line, so printing fig9a hits a closed pipe; the CLI stops
        without a traceback."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = f"{shlex.quote(sys.executable)} -m repro figures fig4 fig9a | head -1"
        proc = subprocess.run(
            ["sh", "-c", cmd], env=env, capture_output=True, text=True, timeout=120
        )
        with open(os.path.join(RESULTS, "fig4.txt")) as fh:
            assert proc.stdout == fh.readline()
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr

    def test_figures_fig6a_scaled(self, capsys):
        assert main(["figures", "fig6a", "--views", "32"]) == 0
        out = capsys.readouterr().out
        assert "paper_min" in out

    @pytest.mark.parametrize("workload", ["saxpy", "timing", "placement", "sparsenn"])
    def test_dot_outputs_digraph(self, capsys, workload):
        assert main(["dot", workload]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_trace_writes_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["profile", "saxpy", "--trace", str(out)]) == 0
        events = json.loads(out.read_text())
        assert len(events) == 7


class TestFiguresModule:
    def test_all_figures_registry(self):
        assert list(ALL_FIGURES) == [
            "fig4", "fig6a", "fig6a-aux", "fig6b", "fig9a", "fig9b",
            "abl-steal", "abl-dedic", "abl-place", "ext-dist", "ext-dist-net", "ext-snn",
        ]

    def test_fig4_rows(self):
        _, headers, rows, _ = fig4_table()
        assert len(rows) == 10
        assert headers[0] == "node"

    def test_fig6a_small(self):
        _, headers, rows, notes = fig6a_table(num_views=16)
        assert len(rows) == 24
        # scaled (1,1) point lands near the paper's 99 minutes
        point = next(r for r in rows if r[0] == 1 and r[1] == 1)
        assert 80 < point[2] < 120

    def test_format_table_alignment(self):
        text = format_table(Table("T", ("a", "bb"), [(1, 22), (333, 4.5)], "note"))
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert lines[-1] == "note"
        assert all(len(l) == len(lines[1]) for l in lines[1:5])
        assert lines[4] == "333  4.50"


class TestGantt:
    @pytest.mark.parametrize("workload", ["timing", "placement", "sparsenn"])
    def test_gantt_renders(self, capsys, workload):
        assert main(["gantt", workload, "--cores", "2", "--gpus", "1",
                     "--size", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "legend" in out
