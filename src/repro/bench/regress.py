"""Perf-regression gate: diff two ``BENCH_<table>.json`` snapshots.

The bench harness persists every table as a versioned JSON payload
(``repro-bench/1``, see :mod:`repro.obs.export`); this module compares two
such snapshots — or two directories of them — cell by cell and classifies
each delta, which is what turns the exported artefacts into an actual
performance trajectory:

* **time-like** columns (name contains ``time``/``seconds``/``ms``) —
  lower is better; a regression is ``new > old × (1 + time_tol)``, with
  cells under ``min_time`` seconds on both sides ignored as noise;
* **quality** columns (``cut``/``fill``/``opcount``/``nnz``/``sep``) —
  lower is better; a regression is ``new > old × (1 + cut_tol)``;
* everything else is **informational** — reported, never gating.

Rows are keyed by ``(matrix, scheme)``.  A table, row or numeric column
of the baseline (OLD) that the new snapshot lacks fails the gate: a
snapshot that silently drops cells must not pass as "no regressions"
(when the matrix list shrank on purpose, regenerate the baseline).
Tables, rows and columns only in NEW are reported but do not gate.
The CLI surface is ``repro bench-diff OLD NEW [--fail-on-regress]``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.utils.errors import ConfigurationError

__all__ = [
    "CellDiff",
    "DiffReport",
    "classify_column",
    "diff_payloads",
    "load_payloads",
    "diff_paths",
    "format_report",
    "format_markdown",
    "DEFAULT_TIME_TOL",
    "DEFAULT_CUT_TOL",
    "DEFAULT_MIN_TIME",
]

#: Default relative tolerance for time-like columns (25 %: wall-clock on
#: shared runners is noisy; the CI gate widens this further).
DEFAULT_TIME_TOL = 0.25
#: Default relative tolerance for quality columns (cuts are seeded and
#: deterministic, so 5 % headroom only covers intentional algorithm drift).
DEFAULT_CUT_TOL = 0.05
#: Time cells below this many seconds on both sides are ignored (noise).
DEFAULT_MIN_TIME = 0.05

_TIME_HINTS = ("time", "seconds", "_ms", "secs")
_QUALITY_HINTS = ("cut", "fill", "opcount", "nnz", "sep", "opc")


def classify_column(name: str) -> str:
    """``"time"``, ``"quality"`` or ``"info"`` for a bench column name."""
    lowered = name.lower()
    if any(hint in lowered for hint in _TIME_HINTS):
        return "time"
    if any(hint in lowered for hint in _QUALITY_HINTS):
        return "quality"
    return "info"


@dataclass(frozen=True)
class CellDiff:
    """One compared cell: a (table, row, column) triple across snapshots."""

    table: str
    matrix: str
    scheme: str
    column: str
    kind: str  #: "time" | "quality" | "info"
    old: float
    new: float
    regressed: bool

    @property
    def ratio(self) -> float:
        """``new / old`` (inf when old is 0 and new is not)."""
        if self.old == 0:
            return float("inf") if self.new else 1.0
        return self.new / self.old


@dataclass
class DiffReport:
    """The full comparison result of two snapshots."""

    cells: list = field(default_factory=list)
    missing_rows: list = field(default_factory=list)  #: in old only
    #: (table, matrix, scheme, column): numeric in old, absent or
    #: non-numeric in new
    missing_columns: list = field(default_factory=list)
    added_rows: list = field(default_factory=list)  #: in new only
    missing_tables: list = field(default_factory=list)
    added_tables: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        """Cells classified as regressions, worst ratio first."""
        return sorted(
            (c for c in self.cells if c.regressed),
            key=lambda c: c.ratio,
            reverse=True,
        )

    @property
    def missing(self) -> int:
        """Baseline tables, rows and columns the new snapshot lacks."""
        return (
            len(self.missing_tables)
            + len(self.missing_rows)
            + len(self.missing_columns)
        )

    @property
    def ok(self) -> bool:
        """True when no cell regressed and nothing of the baseline is
        missing from the new snapshot."""
        return not self.missing and not any(c.regressed for c in self.cells)


def _rows_by_key(payload: dict) -> dict:
    rows = {}
    for row in payload.get("rows", []):
        key = (str(row.get("matrix", "")), str(row.get("scheme", "")))
        rows[key] = row.get("values", {})
    return rows


def _numeric(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def diff_payloads(
    old: dict,
    new: dict,
    *,
    time_tol: float = DEFAULT_TIME_TOL,
    cut_tol: float = DEFAULT_CUT_TOL,
    min_time: float = DEFAULT_MIN_TIME,
    report: DiffReport | None = None,
) -> DiffReport:
    """Diff two ``repro-bench/1`` payloads of the same table."""
    report = report if report is not None else DiffReport()
    table = str(new.get("table") or old.get("table") or "?")
    old_rows = _rows_by_key(old)
    new_rows = _rows_by_key(new)
    for key in old_rows:
        if key not in new_rows:
            report.missing_rows.append((table, *key))
    for key in new_rows:
        if key not in old_rows:
            report.added_rows.append((table, *key))
    for key in old_rows:
        if key not in new_rows:
            continue
        matrix, scheme = key
        before, after = old_rows[key], new_rows[key]
        for column in before:
            o, n = _numeric(before[column]), _numeric(after.get(column))
            if o is None:
                continue
            if n is None:
                report.missing_columns.append((table, matrix, scheme, column))
                continue
            kind = classify_column(column)
            regressed = False
            if kind == "time":
                if not (o < min_time and n < min_time):
                    regressed = n > o * (1.0 + time_tol)
            elif kind == "quality":
                regressed = n > o * (1.0 + cut_tol)
            report.cells.append(
                CellDiff(table, matrix, scheme, column, kind, o, n, regressed)
            )
    return report


def load_payloads(path: str) -> dict:
    """Load ``table → payload`` from a snapshot file or directory.

    A file holds one payload; a directory contributes every
    ``BENCH_*.json`` it contains.
    """
    if os.path.isdir(path):
        payloads = {}
        for name in sorted(os.listdir(path)):
            if name.startswith("BENCH_") and name.endswith(".json"):
                payload = _read_payload(os.path.join(path, name))
                payloads[str(payload.get("table", name))] = payload
        if not payloads:
            raise ConfigurationError(f"no BENCH_*.json files in {path!r}")
        return payloads
    payload = _read_payload(path)
    return {str(payload.get("table", os.path.basename(path))): payload}


def _read_payload(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read bench snapshot {path!r}: {exc}")
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path!r} is not a bench payload object")
    return payload


def diff_paths(
    old_path: str,
    new_path: str,
    *,
    time_tol: float = DEFAULT_TIME_TOL,
    cut_tol: float = DEFAULT_CUT_TOL,
    min_time: float = DEFAULT_MIN_TIME,
) -> DiffReport:
    """Diff two snapshot files or directories (matched per table)."""
    old_tables = load_payloads(old_path)
    new_tables = load_payloads(new_path)
    report = DiffReport()
    for table in old_tables:
        if table not in new_tables:
            report.missing_tables.append(table)
    for table in new_tables:
        if table not in old_tables:
            report.added_tables.append(table)
    for table, old_payload in old_tables.items():
        if table in new_tables:
            diff_payloads(
                old_payload,
                new_tables[table],
                time_tol=time_tol,
                cut_tol=cut_tol,
                min_time=min_time,
                report=report,
            )
    return report


def format_report(report: DiffReport, *, verbose: bool = False) -> str:
    """Human-readable rendering of a :class:`DiffReport`."""
    lines = []
    compared = len(report.cells)
    regressions = report.regressions
    lines.append(
        f"compared {compared} cells: "
        f"{len(regressions)} regression(s), "
        f"{report.missing} missing from NEW"
    )
    for cell in regressions:
        lines.append(
            f"  REGRESS {cell.table}/{cell.matrix}/{cell.scheme} "
            f"{cell.column} [{cell.kind}]: {cell.old:g} -> {cell.new:g} "
            f"(x{cell.ratio:.2f})"
        )
    if verbose:
        for cell in report.cells:
            if not cell.regressed:
                lines.append(
                    f"  ok      {cell.table}/{cell.matrix}/{cell.scheme} "
                    f"{cell.column} [{cell.kind}]: {cell.old:g} -> "
                    f"{cell.new:g} (x{cell.ratio:.2f})"
                )
    for table in report.missing_tables:
        lines.append(f"  MISSING table {table} present only in OLD")
    for table, matrix, scheme in report.missing_rows:
        lines.append(f"  MISSING row {table}/{matrix}/{scheme} only in OLD")
    for table, matrix, scheme, column in report.missing_columns:
        lines.append(
            f"  MISSING column {table}/{matrix}/{scheme} {column} only in OLD"
        )
    for table in report.added_tables:
        lines.append(f"  note: table {table} present only in NEW")
    for table, matrix, scheme in report.added_rows:
        lines.append(f"  note: row {table}/{matrix}/{scheme} only in NEW")
    return "\n".join(lines)


def format_markdown(report: DiffReport, *, verbose: bool = False) -> str:
    """GitHub-flavored markdown rendering of a :class:`DiffReport`.

    Designed to be appended to ``$GITHUB_STEP_SUMMARY``: a status
    headline, a table of the regressed cells (all compared cells with
    ``verbose``), and the row/table mismatch notes as a bullet list.
    """
    regressions = report.regressions
    status = "✅ no regressions" if report.ok else (
        f"❌ {len(regressions)} regression(s), "
        f"{report.missing} missing from NEW"
    )
    lines = [
        "### Bench diff",
        "",
        f"{status} across {len(report.cells)} compared cells.",
    ]
    listed = report.cells if verbose else regressions
    if listed:
        lines += [
            "",
            "| status | table | matrix | scheme | column | kind | old | new | ratio |",
            "| --- | --- | --- | --- | --- | --- | ---: | ---: | ---: |",
        ]
        for cell in listed:
            flag = "REGRESS" if cell.regressed else "ok"
            lines.append(
                f"| {flag} | {cell.table} | {cell.matrix} | {cell.scheme} "
                f"| {cell.column} | {cell.kind} | {cell.old:g} "
                f"| {cell.new:g} | x{cell.ratio:.2f} |"
            )
    notes = [
        *(f"MISSING table `{t}` present only in OLD" for t in report.missing_tables),
        *(
            f"MISSING row `{t}/{m}/{s}` only in OLD"
            for t, m, s in report.missing_rows
        ),
        *(
            f"MISSING column `{t}/{m}/{s}` `{c}` only in OLD"
            for t, m, s, c in report.missing_columns
        ),
        *(f"table `{t}` present only in NEW" for t in report.added_tables),
        *(f"row `{t}/{m}/{s}` only in NEW" for t, m, s in report.added_rows),
    ]
    if notes:
        lines.append("")
        lines += [f"- {note}" for note in notes]
    return "\n".join(lines)
