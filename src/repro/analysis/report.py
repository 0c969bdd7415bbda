"""Rendering lint results for terminals, CI logs, and tooling.

Text output is the human/CI default; ``--format json`` emits a stable
machine-readable document (rule ids, fingerprints, locations) so other
tooling can diff lint runs or feed dashboards.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.lint import LintResult
from repro.analysis.rules import ALL_RULES, Finding, Severity


def render_rules() -> str:
    """The ``--list-rules`` table: id, severity, summary per rule."""
    width = max(len(rule.rule_id) for rule in ALL_RULES)
    lines = ["determinism lint rules:"]
    for rule in ALL_RULES:
        lines.append(f"  {rule.rule_id:{width}s}  "
                     f"{rule.severity.value:7s}  {rule.summary}")
    lines.append("")
    lines.append("suppress one site inline with '# repro: allow[rule-id]' "
                 "(allow[*] for all rules);")
    lines.append("track legacy findings in the baseline file via "
                 "'repro lint --update-baseline'.")
    return "\n".join(lines)


def _summary_line(result: LintResult) -> str:
    counts = result.counts_by_severity()
    errors = counts.get(Severity.ERROR, 0)
    warnings = counts.get(Severity.WARNING, 0)
    return (f"{result.files_checked} files checked: "
            f"{errors} errors, {warnings} warnings, "
            f"{result.inline_suppressed} inline-suppressed, "
            f"{result.baseline_suppressed} baselined")


def render_result(result: LintResult) -> str:
    """Human-readable report: findings, stale-baseline notes, summary."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(finding.render())
    if result.unused_baseline:
        lines.append(
            f"stale baseline: {len(result.unused_baseline)} entries "
            "matched nothing (the findings were fixed); a stale "
            "baseline fails the run — prune with --prune-baseline")
    lines.append(_summary_line(result))
    if result.ok and not result.unused_baseline:
        lines.append("determinism lint: clean")
    elif result.ok:
        lines.append("determinism lint: FAILED (stale baseline entries; "
                     "prune with --prune-baseline)")
    else:
        lines.append("determinism lint: FAILED (fix the findings above, "
                     "add '# repro: allow[rule-id]' at reviewed sites, "
                     "or baseline with --update-baseline)")
    return "\n".join(lines)


def _finding_to_jsonable(finding: Finding) -> Dict[str, object]:
    return {
        "rule": finding.rule_id,
        "severity": finding.severity.value,
        "message": finding.message,
        "hint": finding.hint,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "source": finding.source_line,
        "fingerprint": finding.fingerprint,
    }


def render_result_json(result: LintResult) -> str:
    """The same report as a stable JSON document.

    ``ok`` is the CI gate: it goes false for surviving findings *and*
    for stale baseline entries (which the text report flags too).
    """
    return json.dumps({
        "ok": result.ok and not result.unused_baseline,
        "files_checked": result.files_checked,
        "inline_suppressed": result.inline_suppressed,
        "baseline_suppressed": result.baseline_suppressed,
        "unused_baseline": sorted(result.unused_baseline),
        "findings": [_finding_to_jsonable(f) for f in result.findings],
    }, indent=2, sort_keys=True)


def render_race_report(reports, strict: bool = False) -> str:
    """The ``repro race`` table: one verdict line per system and replay.

    *reports* is a list of
    :class:`~repro.analysis.racefuzz.SystemRaceReport`.  Reassociated
    replays list the drifting fields (float summation reassociation,
    tolerated unless *strict*); divergent replays list the fields that
    actually moved.
    """
    from repro.analysis.racefuzz import (
        VERDICT_DIVERGENT,
        VERDICT_REASSOCIATED,
    )
    lines: List[str] = []
    width = max((len(r.system) for r in reports), default=8)
    replay_width = max((len(replay.replay) for r in reports
                        for replay in r.replays), default=8)
    failed = 0
    for report in reports:
        system = report.system
        for replay in report.replays:
            lines.append(f"  {system:{width}s}  "
                         f"{replay.replay:{replay_width}s}  "
                         f"{report.permutations} permutations  "
                         f"{replay.verdict:12s}  identity "
                         f"{replay.identity_digest[:12]}")
            system = ""
            for outcome in replay.outcomes:
                if outcome.verdict == VERDICT_REASSOCIATED:
                    for drift in outcome.drifts:
                        lines.append(
                            f"      perm {outcome.index}: {drift.field} "
                            f"drifted {drift.baseline!r} -> "
                            f"{drift.value!r} (within tolerance)")
                elif outcome.verdict == VERDICT_DIVERGENT:
                    for diff in outcome.diffs[:4]:
                        lines.append(
                            f"      perm {outcome.index}: {diff.field} "
                            f"DIVERGED {diff.baseline!r} -> "
                            f"{diff.value!r}")
        if not report.ok(strict=strict):
            failed += 1
    if failed:
        lines.append(f"schedule-permutation fuzz: FAILED "
                     f"({failed} of {len(reports)} systems "
                     f"{'not invariant' if strict else 'divergent'})")
    else:
        lines.append(f"schedule-permutation fuzz: clean "
                     f"({len(reports)} systems, ties permuted with no "
                     "observable effect)")
    return "\n".join(lines)
