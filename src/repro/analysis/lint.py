"""The determinism lint engine: files in, suppressed findings out.

Walks Python sources, runs every rule in
:data:`repro.analysis.rules.ALL_RULES` over each file's AST, then
subtracts two sanctioned escape hatches:

- **inline suppressions** — ``# repro: allow[rule-id]`` (or a
  comma-separated list, or ``allow[*]``) on the flagged line marks that
  one site as reviewed-and-sanctioned;
- **the baseline file** — a checked-in JSON list of finding
  fingerprints (``.repro-lint-baseline.json`` at the repo root) for
  legacy findings that are tracked but not yet fixed.  Fingerprints
  hash the flagged source text, not line numbers, so unrelated edits do
  not invalidate entries.

``repro lint`` (see :mod:`repro.cli`) exits non-zero if anything
survives both filters; CI runs it on every push.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.analysis.rules import (
    ALL_RULES,
    FileContext,
    Finding,
    Severity,
)
from repro.errors import AnalysisError

#: Inline suppression syntax: ``# repro: allow[rule-a, rule-b]``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

#: Baseline schema version (bump on incompatible format changes).
BASELINE_VERSION = 1


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


class Baseline:
    """The checked-in set of sanctioned finding fingerprints.

    Each entry records the fingerprint plus human-facing context (rule,
    path, flagged text, justification); only the fingerprint is used
    for matching.
    """

    def __init__(self, entries: Optional[List[Dict[str, str]]] = None):
        self.entries: List[Dict[str, str]] = list(entries or [])

    @property
    def fingerprints(self) -> Set[str]:
        """The fingerprint set used for matching."""
        return {entry["fingerprint"] for entry in self.entries
                if "fingerprint" in entry}

    @classmethod
    def load(cls, path: Union[str, Path, None]) -> "Baseline":
        """Read a baseline file; a missing path gives an empty baseline."""
        if path is None:
            return cls()
        path = Path(path)
        if not path.exists():
            return cls()
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise AnalysisError(f"unreadable baseline {path}: {exc}") from exc
        if data.get("version") != BASELINE_VERSION:
            raise AnalysisError(
                f"baseline {path} has version {data.get('version')!r}; "
                f"this linter writes version {BASELINE_VERSION}")
        return cls(data.get("entries", []))

    @classmethod
    def from_findings(cls, findings: Iterable[Finding],
                      justification: str = "baselined pre-existing "
                      "finding; fix or justify before extending",
                      ) -> "Baseline":
        """A baseline accepting exactly *findings* (deduplicated)."""
        entries: Dict[str, Dict[str, str]] = {}
        for finding in findings:
            entries.setdefault(finding.fingerprint, {
                "fingerprint": finding.fingerprint,
                "rule": finding.rule_id,
                "path": finding.path,
                "source": " ".join(finding.source_line.split()),
                "justification": justification,
            })
        ordered = sorted(entries.values(),
                         key=lambda e: (e["path"], e["rule"], e["source"]))
        return cls(ordered)

    def save(self, path: Union[str, Path]) -> None:
        """Write the baseline as stable, diff-friendly JSON."""
        payload = {"version": BASELINE_VERSION, "entries": self.entries}
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


@dataclass
class LintResult:
    """Everything one lint run produced.

    ``findings`` is what survived suppression — the failures.  The
    tallies record how much was filtered and why, so the report can
    show the full picture.
    """

    findings: List[Finding] = field(default_factory=list)
    inline_suppressed: int = 0
    baseline_suppressed: int = 0
    files_checked: int = 0
    #: Baseline fingerprints that matched nothing (stale entries).
    unused_baseline: Set[str] = field(default_factory=set)

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


def lint_text(source: str, path: str = "<string>",
              baseline: Optional[Baseline] = None) -> LintResult:
    """Lint one source string with inline + baseline suppression applied."""
    raw = lint_source(source, path=path)
    allowed = parse_suppressions(source.splitlines())
    baseline_fps = baseline.fingerprints if baseline is not None else set()
    result = LintResult(files_checked=1)
    matched: Set[str] = set()
    for finding in raw:
        if _is_suppressed(finding, allowed):
            result.inline_suppressed += 1
        elif finding.fingerprint in baseline_fps:
            result.baseline_suppressed += 1
            matched.add(finding.fingerprint)
        else:
            result.findings.append(finding)
    result.unused_baseline = baseline_fps - matched
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
               root: Optional[Union[str, Path]] = None,
               baseline: Optional[Baseline] = None) -> LintResult:
    """Lint every ``.py`` file under *paths*.

    Finding paths (and therefore baseline fingerprints) are recorded
    relative to *root* when given — pass the repo's ``src`` directory
    so fingerprints are stable regardless of the absolute checkout
    location or the current working directory.
    """
    files = iter_python_files(paths)
    root_path = Path(root) if root is not None else None
    baseline_fps = baseline.fingerprints if baseline is not None else set()
    combined = LintResult()
    matched: Set[str] = set()
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
        partial = lint_text(source, path=rel.as_posix(),
                            baseline=baseline)
        combined.findings.extend(partial.findings)
        combined.inline_suppressed += partial.inline_suppressed
        combined.baseline_suppressed += partial.baseline_suppressed
        combined.files_checked += 1
        matched.update(baseline_fps - partial.unused_baseline)
    combined.unused_baseline = baseline_fps - matched
    combined.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return combined
