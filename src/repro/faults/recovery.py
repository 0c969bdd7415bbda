"""Opt-in recovery machinery paired with the fault injector.

Three mechanisms, all driven by the plan's
:class:`~repro.faults.plan.RecoveryPlan`:

- **per-request timeout** — armed at every ingress; a request still
  unserved at the deadline is reaped with drop reason ``timeout``
  (an actively-executing request gets its deadline re-armed instead,
  so timeouts bound *scheduling* delay, not service demand);
- **bounded retry with exponential backoff** — requests stranded by a
  wire fault or orphaned on a crashed core are re-injected through the
  system's normal ingress, spaced ``backoff * multiplier^attempt``;
- **feedback-staleness fallback** — a policy wrapper that steers blind
  round-robin whenever the NIC's status board has heard from no worker
  for longer than the threshold, recovering when feedback resumes.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.core.policy import SchedulingPolicy, StrictRoundRobinPolicy
from repro.faults.plan import RecoveryPlan
from repro.runtime.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.feedback import CoreStatusBoard
    from repro.core.queuing import OutstandingTracker
    from repro.faults.injector import FaultCounters
    from repro.metrics.collector import MetricsCollector
    from repro.sim.engine import Simulator
    from repro.systems.base import BaseSystem

_TERMINAL = (RequestState.COMPLETED, RequestState.DROPPED)


class RecoveryManager:
    """Per-request timeouts plus bounded retry/failover re-injection.

    Installed on a system as ``system.recovery`` by
    :meth:`~repro.faults.injector.FaultInjector.attach`;
    :class:`~repro.systems.base.BaseSystem` calls :meth:`note_ingress`
    and :meth:`note_complete` from its shared lifecycle hooks.
    """

    def __init__(self, sim: "Simulator", system: "BaseSystem",
                 plan: RecoveryPlan, counters: "FaultCounters",
                 metrics: Optional["MetricsCollector"] = None):
        self.sim = sim
        self.system = system
        self.plan = plan
        self.counters = counters
        self.metrics = metrics
        #: request_id -> wire-fault retries consumed.
        self._attempts: Dict[int, int] = {}
        #: request_id -> crashed-worker failover re-steers consumed.
        self._failovers: Dict[int, int] = {}

    # -- lifecycle hooks (called by BaseSystem) ----------------------------

    def note_ingress(self, request: Request) -> None:
        """Arm the per-request deadline (initial entry and re-injections)."""
        if self.plan.timeout_ns > 0:
            self.sim.defer(self.plan.timeout_ns, self._expire, request)

    def note_complete(self, request: Request) -> None:
        """Credit recovery paths that carried *request* to completion."""
        assisted = False
        if self._attempts.pop(request.request_id, None) is not None:
            self.counters.retry_successes += 1
            assisted = True
        if self._failovers.pop(request.request_id, None) is not None:
            self.counters.failover_successes += 1
            assisted = True
        if assisted and (self.metrics is None or
                         request.completion_ns >= self.metrics.warmup_ns):
            self.counters.assisted_completions += 1

    def _expire(self, request: Request) -> None:
        if request.state in _TERMINAL:
            return
        if request.state is RequestState.RUNNING:
            # Actively executing: the deadline bounds scheduling delay,
            # not service demand.  Re-arm so a later preemption into a
            # black hole is still reaped.
            self.sim.defer(self.plan.timeout_ns, self._expire, request)
            return
        self.counters.timeouts += 1
        self.system.drop(request, reason="timeout")

    # -- retry (wire faults) -----------------------------------------------

    def can_retry(self, request: Request) -> bool:
        """Whether *request* has retry budget left."""
        return (self.plan.max_retries > 0 and
                self._attempts.get(request.request_id, 0)
                < self.plan.max_retries)

    def schedule_retry(self, request: Request) -> None:
        """Re-inject *request* after exponential backoff, or drop it."""
        attempts = self._attempts.get(request.request_id, 0)
        if attempts >= self.plan.max_retries:
            self.system.drop(request, reason="fault")
            return
        self._attempts[request.request_id] = attempts + 1
        self.counters.retries += 1
        delay = (self.plan.retry_backoff_ns
                 * self.plan.backoff_multiplier ** attempts)
        self.sim.defer(delay, self._reinject, request)

    # -- failover (crashed workers) ------------------------------------------

    def failover(self, request: Request) -> None:
        """Re-steer an orphan off a crashed worker, or drop it.

        Bounded like retries; a plan with timeouts but zero retries
        still gets one failover re-steer per request — failover is the
        whole point of noticing the crash.
        """
        if request.state in _TERMINAL:
            return
        bound = max(1, self.plan.max_retries)
        count = self._failovers.get(request.request_id, 0)
        if count >= bound:
            self.system.drop(request, reason="fault")
            return
        self._failovers[request.request_id] = count + 1
        self.counters.failovers += 1
        self.sim.defer(self.plan.retry_backoff_ns, self._reinject, request)

    def _reinject(self, request: Request) -> None:
        if request.state in _TERMINAL:
            return
        self.system.ingress(request)

    def __repr__(self) -> str:
        return (f"<RecoveryManager timeout={self.plan.timeout_ns}ns "
                f"retries={self.plan.max_retries} "
                f"inflight={len(self._attempts)}>")


class StalenessFallbackPolicy(SchedulingPolicy):
    """Steer blind round-robin while the feedback plane is silent.

    Wraps the system's real policy; when the freshest entry on the
    status board is older than ``staleness_ns``, worker selection
    falls back to :class:`~repro.core.policy.StrictRoundRobinPolicy`
    (load-blind but safe), and returns to the informed inner policy as
    soon as a fresh update lands.
    """

    def __init__(self, sim: "Simulator", inner: SchedulingPolicy,
                 board: "CoreStatusBoard", staleness_ns: float,
                 counters: Optional["FaultCounters"] = None):
        self.sim = sim
        self.inner = inner
        self.board = board
        self.staleness_ns = staleness_ns
        self.counters = counters
        self._fallback = StrictRoundRobinPolicy()

    def select_worker(self, tracker: "OutstandingTracker",
                      request: Optional[Request] = None) -> Optional[int]:
        freshest = max((s.updated_at for s in self.board.all()), default=0.0)
        if self.sim.now - freshest > self.staleness_ns:
            if self.counters is not None:
                self.counters.stale_fallbacks += 1
            return self._fallback.select_worker(tracker, request)
        return self.inner.select_worker(tracker, request)
