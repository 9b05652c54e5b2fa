"""Tests for the perf-regression gate (repro.bench.regress + bench-diff)."""

import json

import pytest

from repro.bench.regress import (
    classify_column,
    diff_paths,
    diff_payloads,
    format_markdown,
    format_report,
)
from repro.cli import main as cli_main
from repro.utils.errors import ConfigurationError


def payload(table="fig4_runtime", **cells):
    values = {"time_seconds": 1.0, "cut": 500}
    values.update(cells)
    return {
        "schema": "repro-bench/1",
        "table": table,
        "rows": [
            {"matrix": "BCSSTK31", "scheme": "mlkp", "values": dict(values)},
        ],
    }


class TestClassify:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("time_seconds", "time"),
            ("CTime", "time"),
            ("wall", "info"),
            ("32EC", "info"),
            ("cut", "quality"),
            ("ml_cut_16", "quality"),
            ("opcount", "quality"),
            ("fill", "quality"),
            ("balance", "info"),
            ("msb_rel", "info"),
        ],
    )
    def test_kinds(self, name, kind):
        assert classify_column(name) == kind


class TestDiffPayloads:
    def test_identical_is_ok(self):
        report = diff_payloads(payload(), payload())
        assert report.ok
        assert len(report.cells) == 2

    def test_time_regression_detected(self):
        report = diff_payloads(payload(), payload(time_seconds=2.0))
        assert not report.ok
        (bad,) = report.regressions
        assert bad.column == "time_seconds"
        assert bad.ratio == pytest.approx(2.0)

    def test_time_within_tolerance_ok(self):
        report = diff_payloads(
            payload(), payload(time_seconds=1.2), time_tol=0.25
        )
        assert report.ok

    def test_quality_regression_detected(self):
        report = diff_payloads(payload(), payload(cut=600))
        assert not report.ok
        assert report.regressions[0].kind == "quality"

    def test_quality_improvement_ok(self):
        assert diff_payloads(payload(), payload(cut=400)).ok

    def test_noise_floor_skips_tiny_times(self):
        report = diff_payloads(
            payload(time_seconds=0.001), payload(time_seconds=0.01)
        )
        assert report.ok  # 10x, but both under min_time

    def test_missing_rows_gate_added_rows_do_not(self):
        old = payload()
        new = payload()
        new["rows"][0]["matrix"] = "4ELT"
        report = diff_payloads(old, new)
        assert not report.ok
        assert report.missing == 1
        assert report.missing_rows == [("fig4_runtime", "BCSSTK31", "mlkp")]
        assert report.added_rows == [("fig4_runtime", "4ELT", "mlkp")]

    def test_added_row_alone_does_not_gate(self):
        new = payload()
        new["rows"].append(
            {"matrix": "4ELT", "scheme": "mlkp", "values": {"cut": 9}}
        )
        report = diff_payloads(payload(), new)
        assert report.ok
        assert report.added_rows == [("fig4_runtime", "4ELT", "mlkp")]

    @pytest.mark.parametrize("dropped", ["null", "absent"])
    def test_missing_column_gates(self, dropped):
        new = payload()
        if dropped == "null":
            new["rows"][0]["values"]["cut"] = None
        else:
            del new["rows"][0]["values"]["cut"]
        report = diff_payloads(payload(), new)
        assert not report.ok
        assert report.missing_columns == [
            ("fig4_runtime", "BCSSTK31", "mlkp", "cut")
        ]
        assert "MISSING column" in format_report(report)
        assert "1 missing from NEW" in format_markdown(report)

    def test_added_column_does_not_gate(self):
        assert diff_payloads(payload(), payload(extra_ms=3.0)).ok

    def test_format_report_mentions_regressions(self):
        report = diff_payloads(payload(), payload(time_seconds=9.0))
        text = format_report(report)
        assert "REGRESS" in text and "time_seconds" in text


class TestDirMode:
    def _write(self, path, data):
        path.write_text(json.dumps(data))

    def test_directories_matched_by_table(self, tmp_path):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        self._write(old_dir / "BENCH_fig4_runtime.json", payload())
        self._write(old_dir / "BENCH_table2.json", payload(table="table2"))
        self._write(new_dir / "BENCH_fig4_runtime.json", payload())
        report = diff_paths(str(old_dir), str(new_dir))
        assert not report.ok
        assert report.missing_tables == ["table2"]
        # A table only in NEW is reported but does not gate.
        report = diff_paths(str(new_dir), str(old_dir))
        assert report.ok
        assert report.added_tables == ["table2"]

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ConfigurationError):
            diff_paths(str(tmp_path / "empty"), str(tmp_path / "empty"))


class TestCLIExitCodes:
    def _file(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_identical_exits_zero(self, tmp_path, capsys):
        old = self._file(tmp_path, "old.json", payload())
        new = self._file(tmp_path, "new.json", payload())
        assert cli_main(["bench-diff", old, new, "--fail-on-regress"]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._file(tmp_path, "old.json", payload())
        new = self._file(tmp_path, "new.json", payload(time_seconds=5.0))
        assert cli_main(["bench-diff", old, new, "--fail-on-regress"]) == 1
        assert "REGRESS" in capsys.readouterr().out

    def test_regression_without_flag_exits_zero(self, tmp_path, capsys):
        old = self._file(tmp_path, "old.json", payload())
        new = self._file(tmp_path, "new.json", payload(time_seconds=5.0))
        assert cli_main(["bench-diff", old, new]) == 0
        assert "REGRESS" in capsys.readouterr().out

    def test_dropped_column_exits_nonzero(self, tmp_path, capsys):
        old = self._file(tmp_path, "old.json", payload())
        thinned = payload()
        del thinned["rows"][0]["values"]["time_seconds"]
        new = self._file(tmp_path, "new.json", thinned)
        assert cli_main(["bench-diff", old, new, "--fail-on-regress"]) == 1
        assert "MISSING column" in capsys.readouterr().out

    def test_wide_tolerance_accepts_slowdown(self, tmp_path, capsys):
        old = self._file(tmp_path, "old.json", payload())
        new = self._file(tmp_path, "new.json", payload(time_seconds=1.8))
        assert cli_main(
            ["bench-diff", old, new, "--fail-on-regress", "--time-tol", "1.0"]
        ) == 0
        capsys.readouterr()

    def test_missing_input_exits_two(self, tmp_path, capsys):
        old = self._file(tmp_path, "old.json", payload())
        assert cli_main(
            ["bench-diff", old, str(tmp_path / "absent.json")]
        ) == 2
        assert "error:" in capsys.readouterr().err
