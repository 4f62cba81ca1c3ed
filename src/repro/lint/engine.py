"""Two-pass lint engine: collect project context, then apply the rules.

Pass 1 parses every file and harvests cross-file facts (functions
annotated to return sets — see :mod:`repro.lint.project`).  Pass 2
runs the rule visitor per file, applies inline waivers, and lints the
waivers themselves (REPRO301/REPRO302).

Determinism is part of the engine's own contract: files are discovered
with ``sorted(Path.rglob)``, findings are sorted by location, and the
JSON reporter serializes with sorted keys — two runs over the same
tree are byte-identical regardless of ``PYTHONHASHSEED`` (enforced by
``tests/lint/test_determinism.py``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.project import collect_project_context
from repro.lint.rules import RULES_BY_ID, SUPERSEDED_BY_DATAFLOW, run_rules
from repro.lint.waivers import Waiver, parse_waivers

__all__ = ["LintResult", "lint_paths", "lint_source", "ENGINES"]

#: ``syntactic`` is the historical single-statement pattern matcher;
#: ``dataflow`` swaps REPRO103/REPRO401 for the interprocedural
#: REPRO5xx/6xx analyses of :mod:`repro.lint.dataflow`.
ENGINES = ("syntactic", "dataflow")


@dataclass
class LintResult:
    """Everything one lint run produced.

    ``findings`` holds *all* findings, waived ones included (flagged);
    the ``errors``/``warnings`` properties count only unwaived
    findings — they drive the exit code.
    """

    findings: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    parse_failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def errors(self) -> int:
        return sum(1 for f in self.active if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.active if f.severity is Severity.WARNING)

    @property
    def waived(self) -> int:
        return sum(1 for f in self.findings if f.waived)

    def to_dict(self) -> Dict[str, object]:
        return {
            "files": list(self.files),
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "files": len(self.files),
                "findings": len(self.findings),
                "errors": self.errors,
                "warnings": self.warnings,
                "waived": self.waived,
                "parse_failures": len(self.parse_failures),
            },
        }


def _iter_python_files(paths: Sequence[str]) -> List[Tuple[str, Path]]:
    """Expand the CLI arguments into ``(display_path, file)`` pairs.

    Directories are walked recursively; displayed paths stay relative
    to the given argument so output does not depend on the absolute
    checkout location.
    """
    out: List[Tuple[str, Path]] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            for file in sorted(root.rglob("*.py")):
                out.append((str(file), file))
        else:
            out.append((str(root), root))
    out.sort(key=lambda pair: pair[0])
    return out


#: Header-only compound statements: a waiver above one covers the
#: header lines, not the whole (possibly hundred-line) suite.
_COMPOUND = (
    ast.If, ast.While, ast.For, ast.AsyncFor, ast.With, ast.AsyncWith,
    ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
)


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """``(first_line, last_line)`` of every statement's own code.

    Simple statements span ``lineno..end_lineno``; compound statements
    span only their header (up to the first body statement), so a
    waiver never silently blankets an entire suite.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, _COMPOUND):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if body else node.lineno
        else:
            end = node.end_lineno or node.lineno
        spans.append((node.lineno, max(end, node.lineno)))
    return spans


def _attach_waiver_spans(tree: ast.Module, waivers: List[Waiver]) -> None:
    """Give each waiver the full line span of the statement it annotates.

    A trailing waiver (comment on some line *inside* a multi-line
    statement) covers that statement's tightest containing span; a
    waiver on its own line covers the widest statement starting on the
    next line.  Both also keep the historical two-line window
    ``{line, line + 1}`` — a trailing waiver covering the immediately
    following line is an established idiom in this codebase.
    """
    spans = _statement_spans(tree)
    for waiver in waivers:
        lines = {waiver.line, waiver.line + 1}
        containing = [
            span for span in spans if span[0] <= waiver.line <= span[1]
        ]
        if containing:
            start, end = min(
                containing, key=lambda span: (span[1] - span[0], span[0])
            )
            lines.update(range(start, end + 1))
        following = [span for span in spans if span[0] == waiver.line + 1]
        if following:
            start, end = max(following, key=lambda span: span[1] - span[0])
            lines.update(range(start, end + 1))
        waiver.covered_lines = frozenset(lines)


def _lint_waivers(
    path: str,
    waivers: List[Waiver],
    select: Optional[frozenset],
) -> List[Finding]:
    """REPRO301/REPRO302 findings for one file's waiver comments."""
    findings: List[Finding] = []

    def emit(rule_id: str, waiver: Waiver, message: str) -> None:
        if select is not None and rule_id not in select:
            return
        rule = RULES_BY_ID[rule_id]
        findings.append(
            Finding(
                rule_id=rule_id,
                severity=rule.severity,
                path=path,
                line=waiver.line,
                column=0,
                message=message,
            )
        )

    for waiver in waivers:
        if not waiver.rule_ids:
            emit("REPRO301", waiver, "waiver lists no rule ids")
            continue
        unknown = [rid for rid in waiver.rule_ids if rid not in RULES_BY_ID]
        for rid in unknown:
            emit("REPRO301", waiver, f"waiver names unknown rule id {rid!r}")
        if not waiver.reason:
            emit(
                "REPRO301",
                waiver,
                f"waiver for {','.join(waiver.rule_ids)} has no reason; "
                "every waiver must say why the pattern is safe here",
            )
        if not unknown and waiver.reason and not waiver.used:
            emit(
                "REPRO302",
                waiver,
                f"waiver for {','.join(waiver.rule_ids)} suppressed nothing; "
                "remove it",
            )
    return findings


def _apply_waivers(findings: List[Finding], waivers: List[Waiver]) -> List[Finding]:
    """Mark findings covered by a well-formed waiver; flip ``used``."""
    out: List[Finding] = []
    for finding in findings:
        waived_by: Optional[Waiver] = None
        for waiver in waivers:
            if waiver.reason and waiver.covers(finding.rule_id, finding.line):
                waiver.used = True
                waived_by = waiver
                break
        if waived_by is None:
            out.append(finding)
        else:
            out.append(
                Finding(
                    rule_id=finding.rule_id,
                    severity=finding.severity,
                    path=finding.path,
                    line=finding.line,
                    column=finding.column,
                    message=finding.message,
                    waived=True,
                    waiver_reason=waived_by.reason,
                )
            )
    return out


def _dedupe(findings: Iterable[Finding]) -> List[Finding]:
    """Drop exact duplicates (nested loops can visit a node twice)."""
    seen = set()
    out = []
    for finding in findings:
        key = (finding.rule_id, finding.path, finding.line, finding.column,
               finding.message)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out


def lint_sources(
    sources: Dict[str, str],
    select: Optional[Iterable[str]] = None,
    engine: str = "syntactic",
) -> LintResult:
    """Lint in-memory sources: ``{display_path: source_text}``.

    The primitive behind :func:`lint_paths`; also what the test suite
    and the mutation gate call directly.  ``engine="dataflow"`` runs
    the interprocedural analyses of :mod:`repro.lint.dataflow` instead
    of the superseded syntactic rules (REPRO103/REPRO401); the library
    default stays ``syntactic`` — the CLI is what defaults to
    ``dataflow``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown lint engine {engine!r}; expected {ENGINES}")
    chosen = frozenset(select) if select is not None else None
    result = LintResult()
    trees: Dict[str, ast.Module] = {}
    waivers_by_path: Dict[str, List[Waiver]] = {}
    for path in sorted(sources):
        result.files.append(path)
        try:
            trees[path] = ast.parse(sources[path], filename=path)
        except SyntaxError as exc:
            result.parse_failures.append((path, str(exc)))
            continue
        waivers = parse_waivers(sources[path])
        _attach_waiver_spans(trees[path], waivers)
        waivers_by_path[path] = waivers
    project = collect_project_context(trees)
    dataflow_by_path: Dict[str, List[Finding]] = {}
    if engine == "dataflow":
        from repro.lint.dataflow.engine import analyze_project

        for finding in analyze_project(trees, project):
            dataflow_by_path.setdefault(finding.path, []).append(finding)
    for path in sorted(trees):
        raw = run_rules(path, trees[path], project)
        if engine == "dataflow":
            raw = [f for f in raw if f.rule_id not in SUPERSEDED_BY_DATAFLOW]
            raw.extend(dataflow_by_path.get(path, []))
        raw = _dedupe(raw)
        if chosen is not None:
            raw = [f for f in raw if f.rule_id in chosen]
        waivers = waivers_by_path[path]
        findings = _apply_waivers(raw, waivers)
        findings.extend(_lint_waivers(path, waivers, chosen))
        result.findings.extend(findings)
    result.findings.sort(key=lambda f: f.sort_key)
    return result


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    engine: str = "syntactic",
) -> LintResult:
    """Lint a single in-memory module (convenience for tests)."""
    return lint_sources({path: source}, select=select, engine=engine)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    engine: str = "syntactic",
) -> LintResult:
    """Lint files/directories from disk.  See :func:`lint_sources`."""
    sources: Dict[str, str] = {}
    missing: List[str] = []
    for display, file in _iter_python_files(paths):
        try:
            sources[display] = file.read_text()
        except OSError as exc:
            missing.append(f"{display}: {exc}")
    result = lint_sources(sources, select=select, engine=engine)
    for entry in missing:
        result.parse_failures.append((entry.split(":", 1)[0], entry))
    return result
