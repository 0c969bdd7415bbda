"""Unit tests for the tie-break policy seam.

The policy family must be bijective (total order preserved), index 0
must be byte-identical FIFO (the golden suites pin it), derivation must
be platform-stable, and the engine must actually dispatch equal-time
events in key order while leaving distinct-time order untouched.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.tiebreak import (
    FIFO,
    TB_MASK,
    TIEBREAK_ENV,
    TieBreakPolicy,
    parse_tiebreak_spec,
    permutation_policy,
    tiebreak_from_env,
)


class TestPolicy:
    def test_identity_key_is_seq(self):
        assert FIFO.is_identity
        for seq in (0, 1, 7, 10**9, TB_MASK):
            assert FIFO.key(seq) == seq

    def test_index_zero_is_identity_for_every_seed(self):
        for seed in (0, 1, 42, 2**31):
            policy = permutation_policy(0, seed)
            assert policy.is_identity
            assert policy.seed == seed

    def test_nonzero_indices_differ_from_identity_and_each_other(self):
        policies = [permutation_policy(i, seed=0) for i in range(1, 6)]
        mults = {p.mult for p in policies}
        assert len(mults) == len(policies)
        assert all(not p.is_identity for p in policies)
        assert all(p.mult % 2 == 1 for p in policies)

    def test_derivation_is_deterministic(self):
        a = permutation_policy(3, seed=99)
        b = permutation_policy(3, seed=99)
        assert (a.mult, a.add) == (b.mult, b.add)
        c = permutation_policy(3, seed=100)
        assert (a.mult, a.add) != (c.mult, c.add)

    def test_mix_is_bijective_over_a_window(self):
        policy = permutation_policy(1, seed=0)
        keys = {policy.key(seq) for seq in range(4096)}
        assert len(keys) == 4096

    def test_even_mult_rejected(self):
        with pytest.raises(SimulationError):
            TieBreakPolicy(mult=2)

    def test_out_of_range_add_rejected(self):
        with pytest.raises(SimulationError):
            TieBreakPolicy(mult=1, add=TB_MASK + 1)

    def test_negative_index_rejected(self):
        with pytest.raises(SimulationError):
            permutation_policy(-1)


class TestSpecParsing:
    def test_bare_index(self):
        policy = parse_tiebreak_spec("2")
        assert policy.index == 2
        assert policy.seed == 0

    def test_index_with_seed(self):
        policy = parse_tiebreak_spec("3:17")
        assert (policy.index, policy.seed) == (3, 17)
        assert policy == permutation_policy(3, 17)

    @pytest.mark.parametrize("spec", ["", "x", "1:y", "1:2:3", "-2"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(SimulationError):
            parse_tiebreak_spec(spec)

    def test_env_unset_is_none(self):
        assert tiebreak_from_env({}) is None
        assert tiebreak_from_env({TIEBREAK_ENV: "  "}) is None

    def test_env_zero_is_explicit_identity(self):
        policy = tiebreak_from_env({TIEBREAK_ENV: "0"})
        assert policy is not None
        assert policy.is_identity

    def test_env_spec_matches_direct_derivation(self):
        policy = tiebreak_from_env({TIEBREAK_ENV: "2:5"})
        assert policy == permutation_policy(2, 5)


class TestEngineSeam:
    def test_set_tiebreak_after_scheduling_raises(self, sim):
        sim.defer(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.set_tiebreak(permutation_policy(1))

    def test_fresh_simulator_accepts_policy(self):
        sim = Simulator()
        policy = permutation_policy(2)
        sim.set_tiebreak(policy)
        assert sim.tiebreak is policy

    @staticmethod
    def _dispatch_order(policy, n=8):
        sim = Simulator()
        sim.set_tiebreak(policy)
        order = []
        for i in range(n):
            sim.defer(0.0, order.append, i)
        sim.run()
        return order

    def test_identity_dispatches_ties_fifo(self):
        assert self._dispatch_order(FIFO) == list(range(8))

    def test_permutation_dispatches_ties_in_key_order(self):
        """Equal-time events come out sorted by the affine tie key.

        Sequence numbers are assigned 1..n in scheduling order, so the
        predicted dispatch order is scheduling order re-sorted by
        ``policy.key(seq)``.
        """
        policy = permutation_policy(1, seed=0)
        n = 8
        predicted = sorted(range(n), key=lambda i: policy.key(i + 1))
        observed = self._dispatch_order(policy, n)
        assert observed == predicted
        assert observed != list(range(n))  # the permutation is real
        assert sorted(observed) == list(range(n))

    def test_distinct_times_ignore_the_policy(self):
        """``when`` dominates the schedule tuple: permuting tie keys
        must not reorder events at different timestamps."""
        for policy in (FIFO, permutation_policy(1), permutation_policy(2)):
            sim = Simulator()
            sim.set_tiebreak(policy)
            order = []
            for i, delay in enumerate([50.0, 10.0, 40.0, 20.0, 30.0]):
                sim.defer(delay, order.append, i)
            sim.run()
            assert order == [1, 3, 4, 2, 0]

    def test_ranks_order_an_instant_under_every_policy(self):
        """At one instant every entry of a lower rank dispatches before
        any entry of a higher one, whatever the policy; the policy only
        orders entries of one rank."""
        for policy in (FIFO, permutation_policy(1), permutation_policy(2)):
            sim = Simulator()
            sim.set_tiebreak(policy)
            order = []

            def resume(proc_rank):
                yield sim.timeout_ranked(5.0, proc_rank)
                order.append(("process", proc_rank))

            for rank in (2, 1):
                sim.process(resume(rank))
                sim.defer_ranked(5.0, rank, order.append, ("defer", rank))
            sim.defer(5.0, order.append, ("defer", 0))
            sim.defer_ranked(5.0, -1, order.append, ("defer", -1))
            sim.run()
            assert [rank for _kind, rank in order] == [-1, 0, 1, 1, 2, 2]
