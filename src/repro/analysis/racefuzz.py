"""The schedule-permutation fuzzer: the one tie-break race detector.

``repro race`` replays each registered system on every workload in
:data:`REPLAYS` under a family of seeded tie-break permutations
(:func:`repro.sim.tiebreak.permutation_policy`) and compares the full
metrics image of every permuted run against the identity (FIFO) run.
A system whose behavior does not depend on equal-timestamp dispatch
order produces the same bits under every permutation; one that does is
racing on a scheduling accident.

A race shows only on a path a replay runs, so the replays cover: a
clean light-load point, a clean bimodal point loaded enough to queue
(so the Shinjuku family preempts on its slice and ZygOS workers steal),
and a fault plan whose crash, stall, straggler, wire, feedback and
recovery windows all fall inside the scale-0.05 horizon (workers stop
being symmetric, and the recovery paths run).

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
— so the fuzzer can never move the baseline it judges against: its
identity digests are the production digests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.executor import (
    ConfiguredFactory,
    metrics_digest,
    metrics_to_jsonable,
)
from repro.experiments.harness import RunConfig, run_point_with_events
from repro.faults.plan import FaultPlan, parse_fault_spec
from repro.sim.tiebreak import permutation_policy
from repro.systems import registry
from repro.units import us
from repro.workload.distributions import (
    BIMODAL_FIG2,
    Fixed,
    ServiceTimeDistribution,
)

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
class Replay:
    """One workload every system is replayed on."""

    name: str
    rate_rps: float
    distribution: ServiceTimeDistribution
    #: Fault scenario; None runs clean.
    faults: Optional[FaultPlan] = None


#: The workloads ``repro race`` replays, in report order.  Each system
#: runs its default config.  600k RPS is just past the 3-worker
#: Shinjuku plateau, so queues build, the Shinjuku family preempts and
#: ZygOS workers steal.  The fault plan's windows (in microseconds) sit
#: inside the scale-0.05 horizon of 500 us: worker 0 stalls over
#: [150, 250), worker 2 straggles 6x slower over [150, 400), worker 1
#: dies at 300, the fabric loses and reorders packets, the feedback
#: plane loses and delays updates, and timeouts, retries and the
#: staleness fallback recover.
REPLAYS: Tuple[Replay, ...] = (
    Replay("fixed-2us", 200e3, Fixed(us(2.0))),
    Replay("bimodal", 600e3, BIMODAL_FIG2),
    Replay("faults", 300e3, BIMODAL_FIG2, parse_fault_spec(
        "crash=1@300,stall=0@150+100,straggle=2@150+250,"
        "straggle-factor=6,link-loss=0.01,link-reorder=0.02,"
        "feedback-loss=0.05,feedback-stale-us=2,timeout-us=150,"
        "retries=2,stale-after-us=50")),
)


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


def _worst(verdicts) -> str:
    """The most severe of *verdicts* (invariant when there are none)."""
    return max(verdicts, key=_VERDICT_RANK.__getitem__,
               default=VERDICT_INVARIANT)


@dataclass
class ReplayReport:
    """One replay's permutation sweep of one system."""

    replay: str
    identity_digest: str
    outcomes: List[PermutationOutcome] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """The worst verdict across permutations."""
        return _worst(outcome.verdict for outcome in self.outcomes)


@dataclass
class SystemRaceReport:
    """Everything one system's permutation sweeps produced."""

    system: str
    permutations: int
    replays: List[ReplayReport] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """The worst verdict across replays."""
        return _worst(replay.verdict for replay in self.replays)

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


def fuzz_replay(factory: ConfiguredFactory, replay: Replay,
                permutations: int, policy_seed: int,
                config: RunConfig) -> ReplayReport:
    """Permutation-sweep the system *factory* builds on one replay
    (*config*'s fault plan is replaced by the replay's)."""
    config = replace(config, faults=replay.faults)

    def run(index: int):
        metrics, _events = run_point_with_events(
            factory, replay.rate_rps, replay.distribution, config,
            tiebreak=permutation_policy(index, policy_seed))
        return metrics

    base_metrics = run(0)
    base_image = metrics_to_jsonable(base_metrics)
    report = ReplayReport(replay=replay.name,
                          identity_digest=metrics_digest([base_metrics]))
    for index in range(1, permutations):
        metrics = run(index)
        verdict, drifts, diffs = compare_metrics_images(
            base_image, metrics_to_jsonable(metrics))
        report.outcomes.append(PermutationOutcome(
            index=index, digest=metrics_digest([metrics]),
            verdict=verdict, drifts=drifts, diffs=diffs))
    return report


def fuzz_system(name: str, permutations: int = 4, policy_seed: int = 0,
                scale: float = 0.1, run_seed: int = 42) -> SystemRaceReport:
    """Permutation-sweep one registered system on every replay in
    :data:`REPLAYS` (:func:`fuzz_replay` runs one).

    Each replay runs the identity policy first (the historical
    schedule), then each non-identity permutation, comparing full
    metrics images.  All runs of a replay share the workload seed — only
    the equal-timestamp dispatch order varies.
    """
    if permutations < 1:
        raise ExperimentError(
            f"need at least 1 permutation, got {permutations}")
    factory = ConfiguredFactory.by_name(name)
    config = RunConfig(seed=run_seed).scaled(scale)
    return SystemRaceReport(
        system=name, permutations=permutations,
        replays=[fuzz_replay(factory, replay, permutations, policy_seed,
                             config) for replay in REPLAYS])


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
    report = ReplayReport(replay="planted",
                          identity_digest=identity_digest)
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
    return SystemRaceReport(system="injected-race-demo",
                            permutations=permutations, replays=[report])
