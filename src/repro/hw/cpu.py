"""CPU topology and busy-time accounting.

A :class:`HardwareThread` is the schedulable unit (a hyperthread);
processes pin to one and charge execution time to it through
:meth:`HardwareThread.execute`, which both advances simulated time and
accrues utilization statistics.  The topology mirrors the paper's
testbed: two 12-core SMT-2 sockets on the host, and an 8-core ARM
cluster on the Stingray.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.errors import HardwareError
from repro.units import cycles_to_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class HardwareThread:
    """One hyperthread: the unit work is pinned to.

    Time spent via :meth:`execute` accrues to :attr:`busy_ns`, giving
    per-thread utilization — the statistic behind the paper's
    observation that Shinjuku-Offload workers "spend 110% more time
    waiting for work" in Figure 6.
    """

    def __init__(self, sim: "Simulator", core: "CpuCore", smt_index: int):
        self.sim = sim
        self.core = core
        self.smt_index = smt_index
        self.busy_ns = 0.0
        self._pinned: Optional[str] = None

    @property
    def name(self) -> str:
        """Stable identifier, e.g. 'cpu0c3t1'."""
        return f"{self.core.name}t{self.smt_index}"

    @property
    def clock_ghz(self) -> float:
        """The owning core's clock rate."""
        return self.core.clock_ghz

    def pin(self, role: str) -> None:
        """Claim this thread for *role* (e.g. 'dispatcher', 'worker3')."""
        if self._pinned is not None:
            raise HardwareError(
                f"{self.name} already pinned to {self._pinned!r}")
        self._pinned = role

    @property
    def pinned_role(self) -> Optional[str]:
        """The role pinned here, or None while free."""
        return self._pinned

    def execute(self, cost_ns: float) -> float:
        """Spend *cost_ns* of CPU time; yield the returned delay.

        Busy time is accounted immediately — if the executing process
        is interrupted mid-wait, the work was (conservatively) still
        occupying the core, which matches how preemption interrupts
        land between instructions without reclaiming them.
        """
        if not cost_ns >= 0:  # also rejects NaN
            raise HardwareError(f"negative or NaN execution cost: {cost_ns}")
        self.busy_ns += cost_ns
        return cost_ns

    def execute_cycles(self, cycles: float) -> float:
        """Spend *cycles* at this core's clock."""
        return self.execute(cycles_to_ns(cycles, self.clock_ghz))

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of *elapsed_ns* this thread spent executing."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)

    def __repr__(self) -> str:
        role = f" role={self._pinned!r}" if self._pinned else ""
        return f"<HardwareThread {self.name}{role} busy={self.busy_ns:.0f}ns>"


class CpuCore:
    """A physical core with one or more hardware threads."""

    def __init__(self, sim: "Simulator", name: str, clock_ghz: float,
                 smt: int = 1, socket: Optional["Socket"] = None):
        if clock_ghz <= 0:
            raise HardwareError(f"clock_ghz must be positive: {clock_ghz}")
        if smt < 1:
            raise HardwareError(f"smt must be >= 1: {smt}")
        self.sim = sim
        self.name = name
        self.clock_ghz = clock_ghz
        self.socket = socket
        self.threads: List[HardwareThread] = [
            HardwareThread(sim, self, i) for i in range(smt)]

    def __repr__(self) -> str:
        return f"<CpuCore {self.name} {self.clock_ghz}GHz smt={len(self.threads)}>"


class Socket:
    """A CPU socket: a set of cores sharing an LLC."""

    def __init__(self, sim: "Simulator", index: int, n_cores: int,
                 clock_ghz: float, smt: int = 2, name_prefix: str = "cpu"):
        if n_cores < 1:
            raise HardwareError(f"n_cores must be >= 1: {n_cores}")
        self.index = index
        self.cores: List[CpuCore] = [
            CpuCore(sim, f"{name_prefix}{index}c{i}", clock_ghz, smt,
                    socket=self)
            for i in range(n_cores)]

    @property
    def threads(self) -> List[HardwareThread]:
        """All hardware threads on this socket."""
        return [t for core in self.cores for t in core.threads]

    def __repr__(self) -> str:
        return f"<Socket {self.index} cores={len(self.cores)}>"


class HostMachine:
    """The x86 host: sockets of SMT cores plus a thread allocator."""

    def __init__(self, sim: "Simulator", sockets: int = 2,
                 cores_per_socket: int = 12, clock_ghz: float = 2.3,
                 smt: int = 2):
        self.sim = sim
        self.sockets: List[Socket] = [
            Socket(sim, s, cores_per_socket, clock_ghz, smt)
            for s in range(sockets)]
        self._alloc_index = 0

    @property
    def threads(self) -> List[HardwareThread]:
        """All hardware threads on the machine."""
        return [t for sock in self.sockets for t in sock.threads]

    @property
    def cores(self) -> List[CpuCore]:
        """All physical cores on the machine."""
        return [c for sock in self.sockets for c in sock.cores]

    def allocate_thread(self, role: str,
                        share_core_with: Optional[HardwareThread] = None
                        ) -> HardwareThread:
        """Pin the next free hardware thread to *role*.

        With *share_core_with*, allocate the sibling hyperthread on the
        same physical core — how Shinjuku pins its networker and
        dispatcher "to separate hyperthreads on the same physical core"
        (§4.1).
        """
        if share_core_with is not None:
            for sibling in share_core_with.core.threads:
                if sibling.pinned_role is None:
                    sibling.pin(role)
                    return sibling
            raise HardwareError(
                f"no free sibling thread on {share_core_with.core.name}")
        for thread in self.threads:
            if thread.pinned_role is None:
                thread.pin(role)
                return thread
        raise HardwareError("host machine out of hardware threads")

    def allocate_dedicated_core(self, role: str) -> HardwareThread:
        """Pin thread 0 of a fully-free physical core (both siblings)."""
        for core in self.cores:
            if all(t.pinned_role is None for t in core.threads):
                for i, thread in enumerate(core.threads):
                    thread.pin(role if i == 0 else f"{role}:sibling-idle")
                return core.threads[0]
        raise HardwareError("host machine out of free physical cores")

    def __repr__(self) -> str:
        return (f"<HostMachine sockets={len(self.sockets)} "
                f"threads={len(self.threads)}>")
