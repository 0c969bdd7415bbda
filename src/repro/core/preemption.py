"""Time-slice preemption (§3.4.4).

"Workers are preempted if they do not finish executing a request within
the time slice (e.g., 10 µs)."

A :class:`PreemptionDriver` arms a one-shot expiry when a request
starts executing and delivers an interrupt to the worker when the slice
elapses.  The four mechanisms the paper weighs:

``dune``
    Local-APIC timer mapped by Dune; posted-interrupt delivery.  Arm 40
    cycles, receipt 1272 cycles, no delivery latency.  (The prototype's
    choice.)
``linux``
    Linux timer syscall + signal.  Arm 610 cycles, receipt 4193 cycles.
``nic_packet``
    The NIC notices the slice expiry and sends an interrupt *packet*:
    2.56 µs of delivery latency, during which the worker may already
    have finished — the packet then needlessly interrupts the *next*
    request (§3.4.4's complaint, reproduced faithfully).
``direct``
    The ideal NIC's direct interrupt wire (§5.1-3): ~200 ns delivery,
    no arm cost on the worker.

Delivery is routed through the worker's ``deliver_interrupt`` hook so
that interrupts landing while the worker is between requests are
counted as spurious rather than corrupting its control flow — matching
how a real worker's handler just returns when there is nothing to
preempt.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.config import ARM_HOST_ONE_WAY_NS, PreemptionConfig
from repro.errors import ConfigError
from repro.hw.cpu import HardwareThread
from repro.hw.timer_apic import TimerMechanism
from repro.units import cycles_to_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.events import Timeout


class PreemptionDriver:
    """Arms slice expiries and delivers preemption interrupts.

    Parameters
    ----------
    thread:
        The worker hardware thread (arm/receipt costs use its clock).
    config:
        Slice length + mechanism.
    deliver:
        Callback invoked to actually interrupt the worker (installed by
        :class:`~repro.runtime.worker.WorkerCore`).
    """

    def __init__(self, thread: HardwareThread, config: PreemptionConfig,
                 deliver: Optional[Callable[[Any], None]] = None):
        if not config.enabled:
            raise ConfigError(
                "PreemptionDriver created with preemption disabled; "
                "pass preemption=None to the worker instead")
        if config.mechanism == "nic_scan":
            raise ConfigError(
                "mechanism 'nic_scan' is NIC-driven (see "
                "repro.core.nic_scan); it has no local driver and is "
                "only supported by the offload systems")
        self.thread = thread
        self.sim: "Simulator" = thread.sim
        self.config = config
        self.deliver = deliver
        self._generation = 0
        self._armed = False
        #: Handle on the pending expiry event so cancel() can withdraw
        #: it from the schedule instead of letting it pop as a no-op.
        self._expiry: Optional["Timeout"] = None
        # Prebound once: arm() runs per dispatched request.
        self._expire_cb = self._expire
        #: Interrupts actually sent toward the worker.
        self.fired = 0
        #: Expiries cancelled before firing (request finished in time).
        self.cancelled = 0
        # Costs depend only on the mechanism and clock, both fixed at
        # construction; re-deriving them per arm is hot-path waste.
        self._arm_cost_ns = self.arm_cost_ns
        self._slice_ns = (config.time_slice_ns
                          if config.time_slice_ns is not None else None)

    # -- mechanism-derived costs ------------------------------------------------

    @property
    def arm_cost_ns(self) -> float:
        """Synchronous cost the worker pays to arm the slice timer."""
        mechanism = self.config.mechanism
        if mechanism == "dune":
            return cycles_to_ns(TimerMechanism.DUNE.arm_cycles,
                                self.thread.clock_ghz)
        if mechanism == "linux":
            return cycles_to_ns(TimerMechanism.LINUX.arm_cycles,
                                self.thread.clock_ghz)
        # nic_packet / direct: the NIC tracks the slice; workers pay nothing.
        return 0.0

    @property
    def receipt_cost_ns(self) -> float:
        """Cost charged to the worker when the interrupt lands."""
        mechanism = self.config.mechanism
        if mechanism == "linux":
            return cycles_to_ns(TimerMechanism.LINUX.fire_cycles,
                                self.thread.clock_ghz)
        # dune / nic_packet / direct all land as posted interrupts.
        return cycles_to_ns(TimerMechanism.DUNE.fire_cycles,
                            self.thread.clock_ghz)

    @property
    def delivery_latency_ns(self) -> float:
        """Gap between slice expiry and the interrupt reaching the core."""
        mechanism = self.config.mechanism
        if mechanism == "nic_packet":
            return ARM_HOST_ONE_WAY_NS
        if mechanism == "direct":
            return 200.0
        return 0.0

    @property
    def slice_ns(self) -> float:
        """The configured time slice."""
        assert self.config.time_slice_ns is not None
        return self.config.time_slice_ns

    # -- arm / cancel -----------------------------------------------------------

    def arm(self, cause: Any = None, *, at: float) -> float:
        """Arm a slice expiry; returns the arm cost to ``yield``.

        The slice starts at *at* (absolute ns, not before now) and expires
        at ``at + slice``, so a caller still busy until *at* (context
        spawn/restore) can arm up front and then wait once, until
        ``at + cost``, instead of twice.  When the slice elapses (and
        :meth:`cancel` has not run), the interrupt is sent: after
        :attr:`delivery_latency_ns` it reaches the worker via *deliver*.
        Crucially, for the packet mechanisms a cancel() *after* expiry
        does not recall the in-flight packet.
        """
        self._generation += 1
        self._armed = True
        assert self._slice_ns is not None
        # A pooled timeout instead of defer_at(): the same priority and
        # tie-key consumption, a push at exactly at + slice, and a
        # handle that lets cancel() withdraw the expiry eagerly.  The per-arm (generation, cause)
        # pair rides in the event's value so a stale expiry racing a
        # re-arm still sees the state it was armed with.
        expiry = self.sim.timeout_at(at + self._slice_ns,
                                     value=(self._generation, cause))
        expiry.callbacks.append(self._expire_cb)
        self._expiry = expiry
        cost = self._arm_cost_ns
        self.thread.busy_ns += cost
        return cost

    def _expire(self, event: "Timeout") -> None:
        generation, cause = event._value
        if generation != self._generation:
            return  # cancelled or re-armed before expiry
        self._expiry = None
        self._armed = False
        self.fired += 1
        self._send(cause)

    def cancel(self) -> None:
        """Disarm a pending expiry (no effect on in-flight packets)."""
        if self._armed:
            self._generation += 1
            self._armed = False
            self.cancelled += 1
            expiry, self._expiry = self._expiry, None
            if expiry is not None:
                expiry.cancel()

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._armed

    # -- internals ---------------------------------------------------------------

    def _send(self, cause: Any) -> None:
        if self.deliver is None:
            raise ConfigError("PreemptionDriver has no deliver hook installed")
        latency = self.delivery_latency_ns
        if latency <= 0:
            self.deliver(cause)
        else:
            self.sim.defer(latency, self.deliver, cause)

    def __repr__(self) -> str:
        return (f"<PreemptionDriver {self.config.mechanism} "
                f"slice={self.slice_ns}ns fired={self.fired}>")
