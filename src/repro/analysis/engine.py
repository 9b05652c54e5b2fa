"""The lint engine: discovery, the project model, rule dispatch, reporting.

The engine parses every file **exactly once** into a
:class:`~repro.analysis.project.ProjectModel` (shared AST, one cached
``ast.walk`` per module, one suppression table), then runs two rule
families over it:

* **per-file rules** (:class:`Rule`, ``RP001`` … ``RP011``) receive a
  :class:`FileContext` backed by the module's cached traversal;
* **whole-program rules** (:class:`ProjectRule`, ``RP012`` … ``RP016``)
  receive a :class:`ProjectContext` carrying the full project model and
  the static call graph, and may attach **call-path traces** to findings.

Findings are filtered through the per-line suppression table
(``# repro: noqa[RPxxx]`` — see :mod:`repro.analysis.suppress`), and
rendered as ``path:line:col: RPxxx message`` — the shape editors and CI
annotate.  The reporting layer (:mod:`repro.analysis.report`) adds JSON
and SARIF 2.1.0 output plus baseline suppression on top of the same
finding list.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.sections import find_paper_md, load_sections
from repro.analysis.suppress import (  # noqa: F401  (re-exported API)
    SUPPRESS_ALL,
    collect_suppressions,
    is_suppressed,
)

__all__ = [
    "Finding",
    "FileContext",
    "ProjectContext",
    "Rule",
    "ProjectRule",
    "lint_paths",
    "lint_file",
    "format_findings",
    "iter_python_files",
    "collect_suppressions",
    "is_suppressed",
    "SUPPRESS_ALL",
    "PARSE_ERROR_ID",
]

#: Rule id used for files the engine cannot parse at all.
PARSE_ERROR_ID = "RP000"


@dataclass(frozen=True)
class Finding:
    """One lint finding, sortable into report order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: call-path trace (display names, entry first) for whole-program
    #: findings — ``("partition", "_split", "bisect")``.
    trace: tuple = ()

    def format(self) -> str:
        """Render as ``path:line:col: RPxxx message``."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.trace:
            text += f" [call path: {' -> '.join(self.trace)}]"
        return text

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)


class Rule:
    """Per-file rule base: subclasses set ``id``/``name``/``summary``/``doc``
    and implement :meth:`check` over a :class:`FileContext`."""

    id = "RP000"
    name = "base"
    summary = ""
    #: one-paragraph markdown description for the generated rule table.
    doc = ""

    def check(self, ctx):
        """Yield :class:`Finding` objects for one file."""
        raise NotImplementedError


class ProjectRule(Rule):
    """Whole-program rule base: implement :meth:`check_project` over a
    :class:`ProjectContext` (runs once per lint invocation, not per file)."""

    def check(self, ctx):  # pragma: no cover - project rules don't run per-file
        return ()

    def check_project(self, ctx):
        """Yield :class:`Finding` objects across the whole project."""
        raise NotImplementedError


@dataclass
class FileContext:
    """Everything a per-file rule may inspect about one source file."""

    path: Path
    source: str
    tree: ast.AST
    #: Path components of ``path`` (used for location-based exemptions such
    #: as "``graph/`` may mutate CSR arrays").
    parts: tuple = ()
    #: Valid paper section numbers, or ``None`` when no PAPER.md was found
    #: (RP008 then skips).
    sections: set | None = None
    #: line number → set of suppressed rule ids (or ``{"*"}`` for all).
    suppressions: dict = field(default_factory=dict)
    #: the backing :class:`~repro.analysis.project.ModuleInfo`, when the
    #: context came from a project model (carries the cached traversal).
    module: object = None
    #: rule ids restricted for this file (directory-scoped rule sets, e.g.
    #: determinism-only linting of ``tests/``); ``None`` means all rules.
    only_rules: frozenset | None = None

    def walk(self):
        """The module's node list — one shared traversal, never re-walked."""
        if self.module is not None:
            return self.module.nodes
        return list(ast.walk(self.tree))

    def finding(self, node_or_line, rule_id, message, col=None) -> Finding:
        """Build a :class:`Finding` anchored at an AST node or line number."""
        if hasattr(node_or_line, "lineno"):
            line = node_or_line.lineno
            col = node_or_line.col_offset + 1 if col is None else col
        else:
            line = int(node_or_line)
            col = 1 if col is None else col
        return Finding(str(self.path), line, col, rule_id, message)


@dataclass
class ProjectContext:
    """Everything a whole-program rule may inspect."""

    project: object  #: the :class:`~repro.analysis.project.ProjectModel`
    graph: object  #: the :class:`~repro.analysis.callgraph.CallGraph`
    sections: set | None = None

    def finding(
        self, module, node_or_line, rule_id, message, col=None, trace=()
    ) -> Finding:
        """Build a :class:`Finding` in ``module`` with a call-path trace."""
        if hasattr(node_or_line, "lineno"):
            line = node_or_line.lineno
            col = node_or_line.col_offset + 1 if col is None else col
        else:
            line = int(node_or_line)
            col = 1 if col is None else col
        return Finding(str(module.path), line, col, rule_id, message, tuple(trace))


def iter_python_files(paths):
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    files, _ = discover_python_files(paths)
    return files


def discover_python_files(paths):
    """Like :func:`iter_python_files`, also returning per-file root dirs.

    The root map (file → the directory argument it was discovered under)
    lets the project model give fixture trees without ``__init__.py``
    markers proper dotted module names.
    """
    seen = []
    seen_set = set()
    roots: dict[Path, Path] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            if c not in seen_set:
                seen_set.add(c)
                seen.append(c)
                if p.is_dir():
                    roots[c] = p
    return seen, roots


def _split_rules(rules):
    per_file = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    return per_file, project_rules


def _parse_error_findings(project):
    return [
        Finding(str(path), line, col, PARSE_ERROR_ID, message)
        for path, line, col, message in project.errors
    ]


def lint_project(project, rules, sections=None, graph=None, only_rules=None):
    """Run ``rules`` over an already-built project model.

    ``only_rules`` optionally maps ``str(path)`` → frozenset of rule ids
    allowed for that file (directory-scoped rule restriction); project
    rules honour it per finding.
    """
    per_file, project_rules = _split_rules(rules)
    findings = _parse_error_findings(project)
    suppressions = {}
    for module in project.modules_by_path.values():
        suppressions[str(module.path)] = module.suppressions
        allowed = (only_rules or {}).get(str(module.path))
        ctx = FileContext(
            path=module.path,
            source=module.source,
            tree=module.tree,
            parts=module.parts,
            sections=sections,
            suppressions=module.suppressions,
            module=module,
            only_rules=allowed,
        )
        for rule in per_file:
            if allowed is not None and rule.id not in allowed:
                continue
            findings.extend(rule.check(ctx))
    if project_rules:
        if graph is None:
            from repro.analysis.callgraph import build_call_graph

            graph = build_call_graph(project)
        pctx = ProjectContext(project=project, graph=graph, sections=sections)
        for rule in project_rules:
            for f in rule.check_project(pctx):
                allowed = (only_rules or {}).get(f.path)
                if allowed is not None and f.rule_id not in allowed:
                    continue
                findings.append(f)
    out, seen = [], set()
    for f in findings:
        key = (f.path, f.line, f.col, f.rule_id, f.message)
        if key in seen:
            continue
        seen.add(key)
        if not is_suppressed(f, suppressions.get(f.path, {})):
            out.append(f)
    return sorted(out, key=Finding.sort_key)


def lint_paths(paths, rules=None, paper=None, only_rules=None) -> list:
    """Lint every Python file under ``paths`` with ``rules``.

    Parameters
    ----------
    paths:
        Files and/or directories (directories are walked recursively).
    rules:
        Rule instances; defaults to the full repo rule set
        (:func:`repro.analysis.rules.default_rules`).
    paper:
        Explicit ``PAPER.md`` path for the RP008 section index; when
        omitted it is discovered by walking up from the first path.
    only_rules:
        Optional ``str(path) -> frozenset(rule ids)`` restriction map
        (used to lint ``tests/``/``benchmarks/`` with the determinism
        rules only).

    Returns
    -------
    list[Finding]
        All unsuppressed findings, in report order.
    """
    from repro.analysis.project import build_project

    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    files, roots = discover_python_files(paths)
    if paper is None and files:
        paper = find_paper_md(files[0])
    sections = load_sections(paper) if paper else None
    project = build_project(files, roots)
    return lint_project(project, rules, sections=sections, only_rules=only_rules)


def lint_file(path, rules, sections=None) -> list:
    """Run ``rules`` over one file; returns unsuppressed findings.

    Kept for API compatibility — routes through a single-file project
    model so per-file and whole-program rules both work.
    """
    from repro.analysis.project import build_project

    project = build_project([Path(path)])
    return lint_project(project, rules, sections=sections)


def format_findings(findings) -> str:
    """Human/CI-readable report, one finding per line."""
    return "\n".join(f.format() for f in findings)
