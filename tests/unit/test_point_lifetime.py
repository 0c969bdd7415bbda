"""A point's memory lives and dies with the harness call that runs it.

:func:`~repro.experiments.harness.run_point_with_events` pauses cyclic
GC while it builds, runs and summarizes a point, then frees the whole
simulated machine with one young-generation pass.  These tests hold
weak references to the system and the collector a point was built
with and require both to be dead the moment the call returns — with no
``gc`` call of the test's own — and require the caller's GC state to
come back as it was, also after a point that raised.

Under ``REPRO_SANITIZE=1`` every point runs on the sanitizing
simulator, which holds the system through ``watch_system``; that
reference must die with the point too.
"""

import gc
import weakref

import pytest

from repro.experiments.executor import ConfiguredFactory
from repro.experiments.harness import RunConfig, run_point_with_events
from repro.units import ms, us
from repro.workload.distributions import Fixed

TINY = RunConfig(seed=7, horizon_ns=ms(0.5), warmup_ns=ms(0.1))
RATE = 200_000.0
SERVICE = Fixed(us(1.0))


class _Watched:
    """A factory that keeps weak references to what it builds."""

    def __init__(self):
        self.inner = ConfiguredFactory.by_name("shinjuku-offload")
        self.system = None
        self.metrics = None

    def __call__(self, sim, rngs, metrics):
        system = self.inner(sim, rngs, metrics)
        self.system = weakref.ref(system)
        self.metrics = weakref.ref(metrics)
        return system


def _boom(sim, rngs, metrics):
    raise RuntimeError("factory failed")


def _set_gc(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def gc_state():
    """Restore the interpreter's GC state whatever a test leaves."""
    was_enabled = gc.isenabled()
    yield
    _set_gc(was_enabled)


def test_every_point_graph_is_freed_when_its_call_returns(gc_state):
    gc.enable()
    factory = _Watched()
    for rate in (RATE, 2 * RATE, 3 * RATE):
        metrics, events = run_point_with_events(factory, rate, SERVICE, TINY)
        assert events > 0
        assert metrics.throughput.completed > 0
        assert factory.system() is None
        assert factory.metrics() is None


@pytest.mark.parametrize("enabled", [True, False])
def test_caller_gc_state_is_restored(gc_state, enabled):
    _set_gc(enabled)
    run_point_with_events(_Watched(), RATE, SERVICE, TINY)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_caller_gc_state_is_restored_after_a_point_raises(gc_state,
                                                           enabled):
    _set_gc(enabled)
    with pytest.raises(RuntimeError, match="factory failed"):
        run_point_with_events(_boom, RATE, SERVICE, TINY)
    assert gc.isenabled() is enabled
