"""The local-APIC one-shot timer model (§3.4.4).

Workers arm a per-core timer when they start a request; if the request
outlives the time slice the timer fires and preempts it.  Two access
paths exist, with the costs the paper measured at 2.3 GHz:

===========  ==============  =================
path         arm cost        fire/receive cost
===========  ==============  =================
``linux``    610 cycles      4193 cycles
``dune``     40 cycles       1272 cycles
===========  ==============  =================

The Dune path maps the APIC's timer registers into guest physical
address space (arming is a store) and delivers the expiry as a posted
interrupt.

The *arm* cost is synchronous work charged to the arming thread.  The
*fire* cost is charged to the interrupted thread before its handler
logic runs (modelled by the preemption machinery in
:mod:`repro.core.preemption`).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, TYPE_CHECKING

from repro.config import (
    TIMER_ARM_DUNE_CYCLES,
    TIMER_ARM_LINUX_CYCLES,
    TIMER_FIRE_DUNE_CYCLES,
    TIMER_FIRE_LINUX_CYCLES,
)
from repro.errors import TimerError
from repro.hw.cpu import HardwareThread
from repro.units import cycles_to_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.events import Event


class TimerMechanism(enum.Enum):
    """Which access path arms the timer and receives its interrupt."""

    LINUX = "linux"
    DUNE = "dune"

    @property
    def arm_cycles(self) -> int:
        """Cycles to arm the timer via this path (§3.4.4)."""
        if self is TimerMechanism.LINUX:
            return TIMER_ARM_LINUX_CYCLES
        return TIMER_ARM_DUNE_CYCLES

    @property
    def fire_cycles(self) -> int:
        """Cycles to receive the expiry via this path (§3.4.4)."""
        if self is TimerMechanism.LINUX:
            return TIMER_FIRE_LINUX_CYCLES
        return TIMER_FIRE_DUNE_CYCLES


class ApicTimer:
    """A per-hardware-thread one-shot timer.

    Only one expiry may be armed at a time (one-shot hardware);
    re-arming cancels the previous expiry, and :meth:`cancel` disarms.

    Parameters
    ----------
    thread:
        The hardware thread whose APIC this is; arm costs are charged
        to it.
    mechanism:
        Linux-syscall path or Dune-mapped registers.
    """

    def __init__(self, thread: HardwareThread,
                 mechanism: TimerMechanism = TimerMechanism.DUNE):
        self.thread = thread
        self.sim: "Simulator" = thread.sim
        self.mechanism = mechanism
        self._armed_event: Optional["Event"] = None
        self._generation = 0
        #: Number of times the timer actually fired (diagnostics).
        self.fire_count = 0
        #: Number of arms (diagnostics).
        self.arm_count = 0
        #: Number of cancels that beat the expiry (diagnostics).
        self.cancel_count = 0

    @property
    def arm_cost_ns(self) -> float:
        """Synchronous cost of arming, at this core's clock."""
        return cycles_to_ns(self.mechanism.arm_cycles, self.thread.clock_ghz)

    @property
    def fire_cost_ns(self) -> float:
        """Interrupt-receipt cost charged to the interrupted thread."""
        return cycles_to_ns(self.mechanism.fire_cycles, self.thread.clock_ghz)

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._armed_event is not None

    def arm(self, delay_ns: float, on_fire: Callable[[], None]) -> float:
        """Arm a one-shot expiry *delay_ns* from now.

        Returns the arming-cost delay the caller should ``yield`` to
        charge the arm latency to itself; *on_fire* runs when the timer
        expires (unless cancelled or re-armed first).
        """
        if delay_ns <= 0:
            raise TimerError(f"timer delay must be positive, got {delay_ns}")
        if self._armed_event is not None:
            # One-shot hardware: re-arm replaces the pending expiry.
            self.cancel()
        self.arm_count += 1
        self._generation += 1
        generation = self._generation
        expiry = self.sim.timeout(delay_ns, label=f"apic:{self.thread.name}")
        self._armed_event = expiry

        def _fire(_event) -> None:
            if generation != self._generation:
                return  # cancelled or re-armed
            self._armed_event = None
            self.fire_count += 1
            on_fire()

        expiry.callbacks.append(_fire)
        return self.thread.execute(self.arm_cost_ns)

    def cancel(self) -> None:
        """Disarm the pending expiry, if any (free on real hardware)."""
        if self._armed_event is None:
            return
        self._generation += 1
        armed, self._armed_event = self._armed_event, None
        # Withdraw the schedule entry too: the generation guard already
        # made the callback a no-op, but an eager cancel keeps dead
        # expiries from riding the queue to their deadline.
        armed.cancel()
        self.cancel_count += 1

    def __repr__(self) -> str:
        state = "armed" if self.armed else "idle"
        return (f"<ApicTimer {self.thread.name} {self.mechanism.value} "
                f"{state} fired={self.fire_count}>")
