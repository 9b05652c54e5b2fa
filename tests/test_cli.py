"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import write_graph
from repro.matrices import grid2d


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "grid.graph"
    write_graph(grid2d(10, 10), path)
    return str(path)


class TestPartition:
    def test_basic(self, graph_file, capsys):
        assert main(["partition", graph_file, "4"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut:" in out
        assert "balance:" in out

    def test_writes_partition_vector(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "part.txt"
        assert main(["partition", graph_file, "4", "-o", str(out_file)]) == 0
        vec = np.loadtxt(out_file, dtype=int)
        assert len(vec) == 100
        assert set(np.unique(vec)) == {0, 1, 2, 3}

    def test_report_flag(self, graph_file, capsys):
        assert main(["partition", graph_file, "4", "--report"]) == 0
        out = capsys.readouterr().out
        assert "commvol:" in out
        assert "max halo:" in out

    def test_kway_refine_flag(self, graph_file, capsys):
        assert main(["partition", graph_file, "4", "--kway-refine"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut:" in out

    def test_scheme_flags(self, graph_file, capsys):
        assert main([
            "partition", graph_file, "2",
            "--matching", "rm", "--initial", "ggp", "--refinement", "klr",
            "--seed", "7",
        ]) == 0

    def test_deterministic_output(self, graph_file, capsys):
        def quality_lines(text):
            return [ln for ln in text.splitlines()
                    if ln.startswith(("edge-cut", "balance"))]

        main(["partition", graph_file, "4", "--seed", "5"])
        first = quality_lines(capsys.readouterr().out)
        main(["partition", graph_file, "4", "--seed", "5"])
        second = quality_lines(capsys.readouterr().out)
        assert first == second and first


class TestOrder:
    @pytest.mark.parametrize("method", ["mlnd", "mmd", "snd"])
    def test_methods(self, graph_file, capsys, method):
        assert main(["order", graph_file, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "opcount:" in out
        assert f"method:       {method}" in out

    def test_writes_perm(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "perm.txt"
        assert main(["order", graph_file, "-o", str(out_file)]) == 0
        perm = np.loadtxt(out_file, dtype=int)
        assert sorted(perm.tolist()) == list(range(100))


class TestGenerate:
    def test_generates_readable_graph(self, tmp_path, capsys):
        out_file = tmp_path / "gen.graph"
        assert main(["generate", "BCSPWR10", str(out_file), "--scale", "0.1"]) == 0
        assert main(["info", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices:" in out


class TestInfo:
    def test_info_on_file(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:   100" in out
        assert "components: 1" in out

    def test_suite_listing(self, capsys):
        assert main(["info", "--suite"]) == 0
        out = capsys.readouterr().out
        assert "BCSSTK31" in out and "MEMPLUS" in out

    def test_info_without_args_errors(self, capsys):
        assert main(["info"]) == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBadInput:
    """Bad input exits 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv,env",
        [
            (["info", "{tmp}/absent.graph"], {}),
            (["partition", "{tmp}/asymmetric.graph", "2"], {}),
            (["order", "{graph}"], {"REPRO_WORKERS": "abc"}),
            (["partition", "{graph}", "2", "--worker-timeout", "-1"], {}),
        ],
        ids=["missing-file", "asymmetric-graph", "bad-env-knob", "bad-flag"],
    )
    def test_one_line_error_exit_2(self, argv, env, graph_file, tmp_path,
                                   capsys, monkeypatch):
        # Vertex 2 lists 3, but vertex 3 lists nobody.
        (tmp_path / "asymmetric.graph").write_text("3 2\n2\n1 3\n\n")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = [a.format(tmp=tmp_path, graph=graph_file) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
