"""Integration tests for the schedule-permutation fuzzer.

Pins the three verdicts: a tie-insensitive system is ``invariant``, an
ulp-scale float drift is ``reassociated`` (and nothing worse), and the
planted races — the same-instant pair in ``racedemo`` and an
asymmetric consumer pair on one shared
:class:`~repro.runtime.taskqueue.TaskQueue` built here — are
``divergent``.  Every registered system must pass on every replay.
Also covers the ``REPRO_TIEBREAK`` environment seam the CI job uses.
"""

from __future__ import annotations

import pytest

from repro.analysis.racedemo import run_injected
from repro.analysis.racefuzz import (
    REPLAYS,
    VERDICT_DIVERGENT,
    VERDICT_INVARIANT,
    VERDICT_REASSOCIATED,
    PermutationOutcome,
    Replay,
    ReplayReport,
    SystemRaceReport,
    compare_metrics_images,
    fuzz_injected,
    fuzz_replay,
    fuzz_system,
)
from repro.config import HostMachineConfig
from repro.errors import ExperimentError
from repro.experiments.executor import ConfiguredFactory, metrics_digest
from repro.experiments.harness import RunConfig, run_point_with_events
from repro.runtime.taskqueue import TaskQueue
from repro.runtime.worker import ExecutionOutcome
from repro.sim.tiebreak import TIEBREAK_ENV, permutation_policy
from repro.systems import registry
from repro.systems.base import BaseSystem
from repro.systems.parts import build_host_machine, spawn_worker_pool
from repro.units import us
from repro.workload.distributions import Fixed

#: The light-load Fixed 2 us point at 400k RPS the invariance cases use.
FIXED_400K = Replay("fixed-2us-400k", 400e3, Fixed(us(2.0)))

#: The run config of the CI grid (``repro race --scale 0.05``).
GRID_CONFIG = RunConfig(seed=42).scaled(0.05)


def _fuzz(system, replay, permutations=4):
    """One registered system's permutation sweep of one replay."""
    return fuzz_replay(ConfiguredFactory.by_name(system), replay,
                       permutations, 0, GRID_CONFIG)

#: ``run_injected()`` under the identity tie-break.
INJECTED_DIGEST = ("ef9019a6a52d0b8d7ca8ff9eae361ab1f0e575a8e10eaf2fa5ad7a29"
                   "d7bff0d3")


class TestCompareImages:
    BASE = {"throughput": 12, "latency": {"p50": 1.5, "p99": 9.0},
            "samples": [1.0, 2.0]}

    def test_equal_images_invariant(self):
        verdict, drifts, diffs = compare_metrics_images(self.BASE, self.BASE)
        assert verdict == VERDICT_INVARIANT
        assert not drifts and not diffs

    def test_ulp_drift_is_reassociated(self):
        import math
        drifted = {"throughput": 12,
                   "latency": {"p50": math.nextafter(1.5, 2.0), "p99": 9.0},
                   "samples": [1.0, 2.0]}
        verdict, drifts, diffs = compare_metrics_images(self.BASE, drifted)
        assert verdict == VERDICT_REASSOCIATED
        assert [d.field for d in drifts] == ["latency.p50"]
        assert not diffs

    def test_beyond_tolerance_is_divergent(self):
        moved = {"throughput": 12,
                 "latency": {"p50": 1.6, "p99": 9.0},
                 "samples": [1.0, 2.0]}
        verdict, _drifts, diffs = compare_metrics_images(self.BASE, moved)
        assert verdict == VERDICT_DIVERGENT
        assert [d.field for d in diffs] == ["latency.p50"]

    def test_count_change_is_divergent_even_if_small(self):
        """Non-float fields get no tolerance: a count is a count."""
        moved = dict(self.BASE, throughput=13)
        verdict, _drifts, diffs = compare_metrics_images(self.BASE, moved)
        assert verdict == VERDICT_DIVERGENT
        assert [d.field for d in diffs] == ["throughput"]

    def test_shape_change_is_divergent(self):
        moved = dict(self.BASE, samples=[1.0, 2.0, 3.0])
        verdict, _drifts, diffs = compare_metrics_images(self.BASE, moved)
        assert verdict == VERDICT_DIVERGENT
        assert diffs[0].field == "samples"

    def test_reassociation_passes_unless_strict(self):
        replay = ReplayReport("r", "0", [
            PermutationOutcome(1, "0", VERDICT_INVARIANT),
            PermutationOutcome(2, "1", VERDICT_REASSOCIATED)])
        report = SystemRaceReport("s", 3, [replay])
        assert report.verdict == VERDICT_REASSOCIATED
        assert report.ok()
        assert not report.ok(strict=True)


class _AsymmetricSharedQueue(BaseSystem):
    """The planted zero-delay-shared race: two consumers of one
    :class:`TaskQueue`, worker 0 slower, that declare no order between
    them (both dequeue at rank 0).

    Both start waiting at t = 0, so which of them the queue hands the
    first request to is the tie order of their dequeue calls — and with
    asymmetric consumers that choice shows in the metrics.
    """

    name = "planted-shared-taskqueue"
    #: Dequeue at the worker id instead: the order the queue declares.
    ranked = False

    def __init__(self, sim, rngs, metrics):
        super().__init__(sim, rngs, metrics)
        host = HostMachineConfig()
        self.costs = host.costs
        self.machine = build_host_machine(sim, host)
        self.task_queue = TaskQueue(sim, name="plant-q")
        self.workers = spawn_worker_pool(sim, self.machine, 2, self.costs)

    def _start(self):
        for worker in self.workers:
            worker.attach_process(self.sim.process(self._loop(worker)))

    def _server_ingress(self, request):
        self.task_queue.enqueue(request)

    def _loop(self, worker):
        extra_ns = 500.0 if worker.worker_id == 0 else 0.0
        rank = worker.worker_id if self.ranked else 0
        while True:
            worker.begin_wait()
            request = yield self.task_queue.dequeue(rank)
            worker.end_wait()
            yield extra_ns
            outcome = yield from worker.run_request(request)
            if outcome is ExecutionOutcome.FINISHED:
                self.respond(request)


class _RankedPlant(_AsymmetricSharedQueue):
    ranked = True


class TestFuzzSystems:
    @pytest.mark.parametrize("replay", REPLAYS, ids=lambda r: r.name)
    @pytest.mark.parametrize("system", sorted(registry.SYSTEM_MODULES))
    def test_system_passes_replay(self, system, replay):
        """The CI grid, one (system, replay) pair at a time."""
        report = _fuzz(system, replay)
        assert report.verdict != VERDICT_DIVERGENT, report.outcomes

    def test_asymmetric_shared_taskqueue_plant_diverges(self):
        report = fuzz_replay(ConfiguredFactory(_AsymmetricSharedQueue),
                             REPLAYS[0], 4, 0, GRID_CONFIG)
        assert report.verdict == VERDICT_DIVERGENT

    def test_dequeue_rank_orders_the_plant(self):
        """The same consumers with their ids as dequeue ranks: the
        queue, not the tie order, picks who is served first."""
        report = fuzz_replay(ConfiguredFactory(_RankedPlant), REPLAYS[0],
                             4, 0, GRID_CONFIG)
        assert report.verdict == VERDICT_INVARIANT

    def test_shinjuku_is_invariant(self):
        report = _fuzz("shinjuku", FIXED_400K, permutations=3)
        assert report.verdict == VERDICT_INVARIANT
        assert all(o.digest == report.identity_digest
                   for o in report.outcomes)

    def test_rpcvalet_is_invariant(self):
        report = _fuzz("rpcvalet", FIXED_400K, permutations=3)
        assert report.verdict == VERDICT_INVARIANT
        assert all(o.digest == report.identity_digest
                   for o in report.outcomes)

    def test_rpcvalet_is_bit_identical_at_800k(self):
        """The dequeue rank fixes which idle worker takes each request,
        so permuted runs give every worker the same waits and the
        canonical-order wait summation is bit-identical.  Before the
        rank, a request went to whichever worker's dequeue call ran
        first, and ``worker_wait_fraction`` moved in the last ulp
        here."""
        from repro.experiments.executor import metrics_to_jsonable
        factory = ConfiguredFactory.by_name("rpcvalet")
        config = RunConfig(seed=7).scaled(0.1)
        dist = Fixed(us(2.0))
        images = []
        for index in (0, 2):
            metrics, _events = run_point_with_events(
                factory, 800e3, dist, config,
                tiebreak=permutation_policy(index, 0))
            images.append(metrics_to_jsonable(metrics))
        assert compare_metrics_images(*images)[0] == VERDICT_INVARIANT

    def test_injection_diverges_every_permutation(self):
        report = fuzz_injected(permutations=4)
        assert report.verdict == VERDICT_DIVERGENT
        assert not report.ok()
        assert [o.verdict for o in report.replays[0].outcomes] \
            == [VERDICT_DIVERGENT] * 3

    def test_injected_digest_under_default_order_is_pinned(
            self, monkeypatch):
        """The demo's digest (SHA-256 over the JSON of its dispatch
        order and mix) is stable under the kernel's own tie-break."""
        monkeypatch.delenv(TIEBREAK_ENV, raising=False)
        assert run_injected() == INJECTED_DIGEST

    def test_injection_needs_two_permutations(self):
        with pytest.raises(ExperimentError):
            fuzz_injected(permutations=1)

    def test_single_permutation_sweep_is_vacuously_invariant(self):
        report = fuzz_system("rss", permutations=1, scale=0.02)
        assert [replay.outcomes for replay in report.replays] \
            == [[]] * len(REPLAYS)
        assert report.verdict == VERDICT_INVARIANT


class TestEnvironmentSeam:
    @staticmethod
    def _run_digest(tiebreak):
        factory = ConfiguredFactory.by_name("rss")
        config = RunConfig(seed=42).scaled(0.02)
        metrics, _events = run_point_with_events(
            factory, 200e3, Fixed(us(2.0)), config, tiebreak=tiebreak)
        return metrics_digest([metrics])

    def test_env_spec_equals_explicit_policy(self, monkeypatch):
        explicit = self._run_digest(permutation_policy(1))
        monkeypatch.setenv(TIEBREAK_ENV, "1")
        assert self._run_digest(None) == explicit

    def test_env_unset_equals_identity(self, monkeypatch):
        monkeypatch.delenv(TIEBREAK_ENV, raising=False)
        assert self._run_digest(None) \
            == self._run_digest(permutation_policy(0))
