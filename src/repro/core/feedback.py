"""Host -> NIC load feedback (§2.3, §3.2-2, §5.1-2).

The abstraction the paper says existing NIC frameworks lack: "Host
cores need to provide feedback to the SmartNIC at a fine granularity
... whether they are busy or ready to receive more work."

- :class:`WorkerStatus` — one worker's instantaneous state.
- :class:`CoreStatusBoard` — the NIC-side aggregation the scheduler
  reads: busy/idle, outstanding counts, how long the active request
  has been running (the "execution status of active requests" from
  the abstract).
- :class:`FeedbackChannel` — how updates travel: a fixed one-way
  latency, the prototype's 2.56 µs notification packets or the §5.1
  coherent-shared-memory future where a status store becomes visible
  in a few hundred ns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import ConfigError, FeedbackError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass
class WorkerStatus:
    """One worker's state as known at the NIC."""

    worker_id: int
    busy: bool = False
    #: Requests dispatched to the worker and not yet acknowledged done.
    outstanding: int = 0
    #: When the currently running request started (NIC's belief).
    running_since: Optional[float] = None
    #: When this record was last updated at the NIC.
    updated_at: float = 0.0


class CoreStatusBoard:
    """The NIC-resident table of per-core status (§3.2-3: on-board SRAM).

    The informed scheduler reads this to pick cores; feedback channels
    write it.  Staleness is inherent — entries record when they were
    updated so policies can reason about it.
    """

    def __init__(self, sim: "Simulator", n_workers: int):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        self.sim = sim
        self._status: Dict[int, WorkerStatus] = {
            wid: WorkerStatus(worker_id=wid) for wid in range(n_workers)}
        #: Updates applied (diagnostics).
        self.updates = 0

    def apply(self, status: WorkerStatus) -> None:
        """Install a (possibly stale) status snapshot for a worker."""
        if status.worker_id not in self._status:
            raise ConfigError(f"unknown worker {status.worker_id}")
        status.updated_at = self.sim.now
        self._status[status.worker_id] = status
        self.updates += 1

    def knows(self, worker_id: int) -> bool:
        """Whether this board tracks *worker_id*."""
        return worker_id in self._status

    @property
    def n_workers(self) -> int:
        """Number of workers tracked by this board."""
        return len(self._status)

    def get(self, worker_id: int) -> WorkerStatus:
        """The current (possibly stale) status of one worker."""
        return self._status[worker_id]

    def all(self) -> List[WorkerStatus]:
        """Every worker's status, in worker-id order."""
        return list(self._status.values())

    def idle_workers(self) -> List[int]:
        """Workers believed idle, least-recently-updated first."""
        idle = [s for s in self._status.values() if not s.busy]
        idle.sort(key=lambda s: s.updated_at)
        return [s.worker_id for s in idle]

    def least_outstanding(self) -> int:
        """The worker with the fewest outstanding requests."""
        return min(self._status.values(),
                   key=lambda s: (s.outstanding, s.worker_id)).worker_id

    def oldest_running(self) -> Optional[int]:
        """The busy worker whose request has run longest, or None."""
        busy = [s for s in self._status.values()
                if s.busy and s.running_since is not None]
        if not busy:
            return None
        return min(busy, key=lambda s: s.running_since).worker_id

    def __repr__(self) -> str:
        busy = sum(1 for s in self._status.values() if s.busy)
        return f"<CoreStatusBoard workers={len(self._status)} busy={busy}>"


class FeedbackChannel:
    """Ships :class:`WorkerStatus` updates to a board, each after a fixed
    one-way latency.

    Parameters
    ----------
    sim:
        Owning simulator.
    board:
        Destination status board at the NIC.
    latency_ns:
        One-way update latency.
    on_update:
        Optional NIC-side callback after each applied update (used to
        wake the scheduler).
    """

    def __init__(self, sim: "Simulator", board: CoreStatusBoard,
                 latency_ns: float,
                 on_update: Optional[Callable[[WorkerStatus], None]] = None):
        if latency_ns < 0:
            raise ConfigError(f"negative feedback latency: {latency_ns}")
        self.sim = sim
        self.board = board
        self.latency_ns = latency_ns
        self.on_update = on_update
        #: Updates sent (diagnostics).
        self.sent = 0
        #: Updates dropped by fault injection (diagnostics).
        self.lost = 0

    def send(self, status: WorkerStatus) -> None:
        """Ship *status*; it lands on the board ``latency_ns`` later.

        Raises :class:`~repro.errors.FeedbackError` eagerly — at the
        sender, not ``latency_ns`` later inside a callback — when the
        destination board does not track ``status.worker_id``.
        """
        if not self.board.knows(status.worker_id):
            raise FeedbackError(
                f"feedback for unknown worker {status.worker_id}: the "
                f"destination board tracks workers "
                f"0..{self.board.n_workers - 1}")
        self.sent += 1
        latency = self.latency_ns
        injector = self.sim.fault_injector
        if injector is not None and injector.feedback_active:
            if injector.feedback_lost():
                self.lost += 1
                return
            latency += injector.feedback_staleness_ns()
        if latency <= 0:
            self._apply(status)
        else:
            self.sim.defer(latency, self._apply, status)

    def _apply(self, status: WorkerStatus) -> None:
        self.board.apply(status)
        if self.on_update is not None:
            self.on_update(status)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} latency={self.latency_ns}ns sent={self.sent}>"
