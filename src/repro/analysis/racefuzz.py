"""The schedule-permutation fuzzer: the dynamic race-detector prong.

``repro race`` replays each registered system under a family of seeded
tie-break permutations (:func:`repro.sim.tiebreak.permutation_policy`)
and compares the full metrics image of every permuted run against the
identity (FIFO) run.  A system whose behavior does not depend on
equal-timestamp dispatch order produces the same bits under every
permutation; one that does is racing on a scheduling accident.

Fuzz runs execute the collector with ``exact_reductions`` on: float
aggregates over symmetric workers use exactly rounded sums
(:func:`math.fsum`), so when permuted workers merely swap which idle
interval each one absorbed, the aggregate is a pure function of the
interval multiset and the run certifies *invariant*.  The production
path keeps its canonical-order summation (the published digests pin
that rounding), which is deterministic but not reassociation-free —
the fuzzer's job is to prove the underlying intervals, not the
rounding order, are schedule-independent.

Verdict taxonomy
----------------
Bit-equality is the gold standard, but a permutation could also change
*nothing observable* while still perturbing the last ulp of a float
aggregate.  Collapsing that with a real race would make the tool cry
wolf, so each permuted run gets one of three verdicts:

- ``invariant`` — metrics digest identical to the identity run.
- ``reassociated`` — some float field differs, but every field agrees
  within ``REL_TOL``/``ABS_TOL`` (and all non-float fields — counts,
  percentile sample values, shapes — are exactly equal).  This is
  floating-point summation reassociation, not a semantic divergence;
  it passes by default and fails under ``--strict``.
- ``divergent`` — a structural or beyond-tolerance difference: the
  system's behavior depends on tie order.  Always fails.

The identity permutation (index 0) replays the historical schedule by
construction — the same events in the same order the golden suites pin
— so the fuzzer can never move the baseline it judges against (its
reported digests differ from production digests only where exact
summation rounds differently than the canonical order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.executor import (
    ConfiguredFactory,
    metrics_digest,
    metrics_to_jsonable,
)
from repro.experiments.harness import RunConfig, run_point_with_events
from repro.sim.tiebreak import permutation_policy
from repro.systems import registry
from repro.units import us
from repro.workload.distributions import Fixed

VERDICT_INVARIANT = "invariant"
VERDICT_REASSOCIATED = "reassociated"
VERDICT_DIVERGENT = "divergent"

#: Tolerance separating summation reassociation (ulp-scale) from
#: semantic divergence (anything a reordered event could observably
#: cause is nanoseconds, i.e. many orders of magnitude above this).
REL_TOL = 1e-9
ABS_TOL = 1e-12

#: Severity order for aggregating one system's outcomes.
_VERDICT_RANK = {VERDICT_INVARIANT: 0, VERDICT_REASSOCIATED: 1,
                 VERDICT_DIVERGENT: 2}


@dataclass(frozen=True)
class FieldDiff:
    """One differing metrics field between identity and a permutation."""

    field: str
    baseline: Any
    value: Any


@dataclass(frozen=True)
class PermutationOutcome:
    """The comparison result of one permuted replay."""

    index: int
    digest: str
    verdict: str
    #: Within-tolerance float drifts (reassociated verdicts).
    drifts: Tuple[FieldDiff, ...] = ()
    #: Beyond-tolerance / structural differences (divergent verdicts).
    diffs: Tuple[FieldDiff, ...] = ()


@dataclass
class SystemRaceReport:
    """Everything one system's permutation sweep produced."""

    system: str
    rate_rps: float
    permutations: int
    identity_digest: str
    outcomes: List[PermutationOutcome] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """The worst verdict across permutations."""
        worst = VERDICT_INVARIANT
        for outcome in self.outcomes:
            if _VERDICT_RANK[outcome.verdict] > _VERDICT_RANK[worst]:
                worst = outcome.verdict
        return worst

    def ok(self, strict: bool = False) -> bool:
        """Does this system pass (reassociation tolerated unless
        *strict*)?"""
        if strict:
            return self.verdict == VERDICT_INVARIANT
        return self.verdict != VERDICT_DIVERGENT


def _compare_trees(baseline: Any, value: Any, prefix: str,
                   drifts: List[FieldDiff],
                   diffs: List[FieldDiff]) -> None:
    """Classify every leaf difference between two metrics images."""
    if isinstance(baseline, dict) and isinstance(value, dict):
        if set(baseline) != set(value):
            diffs.append(FieldDiff(prefix or "<root>",
                                   sorted(baseline), sorted(value)))
            return
        for key in sorted(baseline):
            _compare_trees(baseline[key], value[key],
                           f"{prefix}.{key}" if prefix else key,
                           drifts, diffs)
        return
    if isinstance(baseline, (list, tuple)) and isinstance(value,
                                                          (list, tuple)):
        if len(baseline) != len(value):
            diffs.append(FieldDiff(prefix, len(baseline), len(value)))
            return
        for i, (a, b) in enumerate(zip(baseline, value)):
            _compare_trees(a, b, f"{prefix}[{i}]", drifts, diffs)
        return
    if isinstance(baseline, float) and isinstance(value, float) \
            and not isinstance(baseline, bool) \
            and not isinstance(value, bool):
        if baseline == value or (math.isnan(baseline)
                                 and math.isnan(value)):
            return
        if math.isclose(baseline, value, rel_tol=REL_TOL,
                        abs_tol=ABS_TOL):
            drifts.append(FieldDiff(prefix, baseline, value))
        else:
            diffs.append(FieldDiff(prefix, baseline, value))
        return
    if baseline != value or type(baseline) is not type(value):
        diffs.append(FieldDiff(prefix, baseline, value))


def compare_metrics_images(baseline: Dict[str, Any],
                           value: Dict[str, Any]
                           ) -> Tuple[str, Tuple[FieldDiff, ...],
                                      Tuple[FieldDiff, ...]]:
    """``(verdict, drifts, diffs)`` for two metrics JSON images."""
    drifts: List[FieldDiff] = []
    diffs: List[FieldDiff] = []
    _compare_trees(baseline, value, "", drifts, diffs)
    if diffs:
        return VERDICT_DIVERGENT, tuple(drifts), tuple(diffs)
    if drifts:
        return VERDICT_REASSOCIATED, tuple(drifts), ()
    return VERDICT_INVARIANT, (), ()


def fuzz_system(name: str, permutations: int = 4, policy_seed: int = 0,
                rate_rps: float = 200e3, service_us: float = 2.0,
                scale: float = 0.1, run_seed: int = 42
                ) -> SystemRaceReport:
    """Permutation-sweep one registered system at one load point.

    Runs the identity policy first (the historical schedule), then each
    non-identity permutation, comparing full metrics images.  All runs
    share the workload seed and use exactly rounded collector
    reductions — only the equal-timestamp dispatch order varies.
    """
    if permutations < 1:
        raise ExperimentError(
            f"need at least 1 permutation, got {permutations}")
    factory = ConfiguredFactory.by_name(name)
    config = RunConfig(seed=run_seed).scaled(scale)
    distribution = Fixed(us(service_us))
    identity = permutation_policy(0, policy_seed)
    base_metrics, _events = run_point_with_events(
        factory, rate_rps, distribution, config, tiebreak=identity,
        exact_reductions=True)
    base_image = metrics_to_jsonable(base_metrics)
    report = SystemRaceReport(
        system=name, rate_rps=rate_rps, permutations=permutations,
        identity_digest=metrics_digest([base_metrics]))
    for index in range(1, permutations):
        policy = permutation_policy(index, policy_seed)
        metrics, _events = run_point_with_events(
            factory, rate_rps, distribution, config, tiebreak=policy,
            exact_reductions=True)
        image = metrics_to_jsonable(metrics)
        verdict, drifts, diffs = compare_metrics_images(base_image, image)
        report.outcomes.append(PermutationOutcome(
            index=index, digest=metrics_digest([metrics]),
            verdict=verdict, drifts=drifts, diffs=diffs))
    return report


def fuzz_all(names: Optional[Sequence[str]] = None,
             **kwargs: Any) -> List[SystemRaceReport]:
    """Permutation-sweep every (or the named) registered system."""
    if names is None:
        names = [entry.name for entry in registry.list_systems()]
    return [fuzz_system(name, **kwargs) for name in names]


def fuzz_injected(permutations: int = 4,
                  policy_seed: int = 0) -> SystemRaceReport:
    """Permutation-sweep the planted race in
    :mod:`repro.analysis.racedemo`.

    A healthy detector reports this as divergent — the self-test that
    the seam actually permutes and the comparison actually bites.
    """
    from repro.analysis import racedemo
    if permutations < 2:
        raise ExperimentError(
            f"the injection needs >= 2 permutations, got {permutations}")
    identity_digest = racedemo.run_injected(
        permutation_policy(0, policy_seed))
    report = SystemRaceReport(
        system="injected-race-demo", rate_rps=0.0,
        permutations=permutations, identity_digest=identity_digest)
    for index in range(1, permutations):
        digest = racedemo.run_injected(
            permutation_policy(index, policy_seed))
        verdict = (VERDICT_INVARIANT if digest == identity_digest
                   else VERDICT_DIVERGENT)
        diffs = (() if verdict == VERDICT_INVARIANT
                 else (FieldDiff("order-digest", identity_digest[:16],
                                 digest[:16]),))
        report.outcomes.append(PermutationOutcome(
            index=index, digest=digest, verdict=verdict, diffs=diffs))
    return report
