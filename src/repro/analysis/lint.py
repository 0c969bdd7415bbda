"""The determinism lint engine: files in, suppressed findings out.

Walks Python sources, runs every rule in
:data:`repro.analysis.rules.ALL_RULES` over each file's AST, then
subtracts the one sanctioned escape hatch: an inline suppression —
``# repro: allow[rule-id]`` (or a comma-separated list, or
``allow[*]``) on the flagged line marks that one site as
reviewed-and-sanctioned.

``repro lint`` (see :mod:`repro.cli`) exits non-zero if anything
survives; CI runs it on every push.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.analysis.rules import (
    ALL_RULES,
    FileContext,
    Finding,
    Severity,
)
from repro.errors import AnalysisError

#: Inline suppression syntax: ``# repro: allow[rule-a, rule-b]``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")


def parse_suppressions(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids allowed on that line.

    ``*`` allows every rule on the line.  Unknown rule ids are kept
    verbatim (they simply never match) so stale suppressions are
    harmless rather than fatal.
    """
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match:
            ids = {part.strip() for part in match.group(1).split(",")}
            allowed[lineno] = {rule_id for rule_id in ids if rule_id}
    return allowed


def _is_suppressed(finding: Finding,
                   allowed: Dict[int, Set[str]]) -> bool:
    rule_ids = allowed.get(finding.line)
    if not rule_ids:
        return False
    return "*" in rule_ids or finding.rule_id in rule_ids


@dataclass
class LintResult:
    """Everything one lint run produced.

    ``findings`` is what survived suppression — the failures;
    ``inline_suppressed`` counts the sanctioned sites filtered out.
    """

    findings: List[Finding] = field(default_factory=list)
    inline_suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing unsuppressed was found."""
        return not self.findings

    def counts_by_severity(self) -> Dict[Severity, int]:
        """How many surviving findings per severity."""
        counts: Dict[Severity, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Every raw finding in *source*, before any suppression.

    A syntax error is reported as a single ``parse-error`` finding
    rather than raised, so one broken file cannot hide the rest of the
    run.
    """
    lines = tuple(source.splitlines())
    ctx = FileContext(path=path, source_lines=lines)
    try:
        module = ast.parse(source, filename=path)
    except SyntaxError as exc:
        lineno = exc.lineno or 1
        return [Finding(
            rule_id="parse-error", severity=Severity.ERROR,
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error; nothing else in this file "
                 "was checked",
            path=path, line=lineno, col=(exc.offset or 1) - 1,
            source_line=ctx.line_text(lineno))]
    findings: List[Finding] = []
    for rule in ALL_RULES:
        findings.extend(rule.check(module, ctx))
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings


def lint_text(source: str, path: str = "<string>") -> LintResult:
    """Lint one source string with inline suppression applied."""
    raw = lint_source(source, path=path)
    allowed = parse_suppressions(source.splitlines())
    result = LintResult(files_checked=1)
    for finding in raw:
        if _is_suppressed(finding, allowed):
            result.inline_suppressed += 1
        else:
            result.findings.append(finding)
    return result


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand *paths* (files or directories) to a sorted .py file list."""
    files: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise AnalysisError(f"not a Python file or directory: {path}")
    return sorted(files)


def lint_paths(paths: Sequence[Union[str, Path]],
               root: Optional[Union[str, Path]] = None) -> LintResult:
    """Lint every ``.py`` file under *paths*.

    Finding paths are recorded relative to *root* when given — pass
    the repo's ``src`` directory so reports read the same regardless of
    the absolute checkout location or the current working directory.
    """
    files = iter_python_files(paths)
    root_path = Path(root) if root is not None else None
    combined = LintResult()
    for file_path in files:
        rel = file_path
        if root_path is not None:
            try:
                rel = file_path.resolve().relative_to(root_path.resolve())
            except ValueError:
                rel = file_path
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {file_path}: {exc}") from exc
        partial = lint_text(source, path=rel.as_posix())
        combined.findings.extend(partial.findings)
        combined.inline_suppressed += partial.inline_suppressed
        combined.files_checked += 1
    combined.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return combined
