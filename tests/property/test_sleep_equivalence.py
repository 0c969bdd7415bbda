"""Property tests: a bare-delay sleep is exactly a handle-less timeout.

A process may wait with ``yield d`` instead of ``yield sim.timeout(d)``.
The two must be indistinguishable to the rest of the run: the same
schedule push (``now + d``, one tie key), the same
resume value, and — when an interrupt cuts the wait short — the same
stale schedule entry that still fires and counts.  These tests generate
random process programs with same-instant ties and interrupts landing
during waits, and replay each one with every wait spelled as a timeout
and with the generated mix of spellings, under FIFO and two permuted
tie-break policies, on a plain simulator and with the loop's per-event
observer installed (the sanitizer's checks, or a counting hook).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizedSimulator
from repro.errors import ProcessInterrupt
from repro.sim.engine import Simulator
from repro.sim.tiebreak import FIFO, permutation_policy

#: Small delays, ints and floats mixed, so waits collide on instants.
delays = st.sampled_from([0, 1, 2, 3, 0.0, 1.0, 1.5, 2.0])

#: One wait: (delay, spelled as a bare delay in the mixed variant?).
waits = st.tuples(delays, st.booleans())

programs = st.lists(st.lists(waits, min_size=1, max_size=6),
                    min_size=1, max_size=4)

#: Interrupts: (absolute time, target process index).
interrupts = st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                                st.integers(min_value=0, max_value=3)),
                      max_size=5)

POLICIES = (FIFO, permutation_policy(1), permutation_policy(2))


def counting_simulator():
    """A plain simulator whose observer counts the events it sees;
    returns it with the one-cell count."""
    sim = Simulator()
    seen = [0]

    def observe():
        seen[0] += 1
    sim.observer = observe
    return sim, seen


def run(sim_cls, policy, program, hits, mixed, sim=None):
    """Run *program*; return its ``(now, process, step)`` trace (plus
    each resume's value and interrupt marks), the processes' outcomes,
    the event count and the final clock."""
    if sim is None:
        sim = sim_cls()
    sim.set_tiebreak(policy)
    trace = []

    def body(pid, steps):
        for step, (delay, bare) in enumerate(steps):
            try:
                got = yield (delay if mixed and bare else sim.timeout(delay))
                trace.append((sim.now, pid, step, got))
            except ProcessInterrupt as pi:
                trace.append((sim.now, pid, step, ("interrupt", pi.cause)))

    procs = [sim.process(body(pid, steps)) for pid, steps in enumerate(program)]
    for n, (at, target) in enumerate(hits):
        proc = procs[target % len(procs)]
        sim.defer(float(at), proc.interrupt, n)
    sim.run()
    # An interrupt that lands before a process first runs kills it.
    outcomes = [proc.ok for proc in procs]
    return trace, outcomes, sim.event_count, sim.now


class TestSleepMatchesTimeout:
    @given(programs, interrupts)
    @settings(max_examples=80, deadline=None)
    def test_mixed_spellings_replay_identically(self, program, hits):
        for sim_cls in (Simulator, SanitizedSimulator):
            for policy in POLICIES:
                reference = run(sim_cls, policy, program, hits, mixed=False)
                assert run(sim_cls, policy, program, hits,
                           mixed=True) == reference, (sim_cls, policy)

    @given(programs, interrupts)
    @settings(max_examples=40, deadline=None)
    def test_observed_loop_matches_plain_loop(self, program, hits):
        """An installed observer sees every counted event and changes
        nothing: the sanitizer's run and a counting hook's run replay
        the plain run exactly."""
        for policy in POLICIES:
            plain = run(Simulator, policy, program, hits, mixed=True)
            assert run(SanitizedSimulator, policy, program, hits,
                       mixed=True) == plain
            sim, seen = counting_simulator()
            assert run(None, policy, program, hits, mixed=True,
                       sim=sim) == plain
            assert seen == [sim.event_count]
