"""The outstanding-request queuing optimization (§3.4.5).

"Given the communication latency between the Stingray ARM CPU and the
host server CPU, how can the dispatcher ensure that a pending request
is waiting in a worker's RX queue when the worker is preempted or
finishes a request, so that the worker is always busy?  ... The
dispatcher ensures that at least one request is waiting in the worker's
network RX queue while the worker is executing a request."

:class:`OutstandingTracker` is the dispatcher-side credit counter that
realizes this: each worker may have up to ``target`` requests
outstanding (the executing one plus RX-queue stash).  Figure 3 sweeps
``target`` from 1 to 7; the paper's sweet spot is 5.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigError, SchedulingError


class OutstandingTracker:
    """Per-worker outstanding-request credits.

    Parameters
    ----------
    n_workers:
        Worker count.
    target:
        Maximum requests outstanding per worker (1 = no optimization,
        i.e. dispatch only to idle workers).
    """

    def __init__(self, n_workers: int, target: int = 1):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if target < 1:
            raise ConfigError(f"target must be >= 1, got {target}")
        self.n_workers = n_workers
        self.target = target
        self._outstanding: Dict[int, int] = {w: 0 for w in range(n_workers)}
        #: Running sum of outstanding requests (kept in lockstep with
        #: credit/debit so ``total`` never re-sums the dict on hot paths).
        self._total = 0
        #: ``_total`` when every worker is at target: nobody can take more.
        self._full = n_workers * target
        #: Round-robin pointer for tie-breaking among equal loads.
        self._rr_next = 0
        #: Peak total outstanding (diagnostics).
        self.max_total = 0
        #: Workers taken out of rotation (crashed; fault injection).
        self._down: set = set()

    def outstanding(self, worker_id: int) -> int:
        """Requests currently outstanding at *worker_id*."""
        return self._outstanding[worker_id]

    @property
    def total(self) -> int:
        """Requests outstanding across all workers."""
        return self._total

    def has_capacity(self, worker_id: int) -> bool:
        """True if *worker_id* is below its outstanding target."""
        if worker_id in self._down:
            return False
        return self._outstanding[worker_id] < self.target

    def workers_below_target(self) -> List[int]:
        """Workers that can accept another request."""
        return [w for w, n in self._outstanding.items()
                if n < self.target and w not in self._down]

    def mark_down(self, worker_id: int) -> None:
        """Take *worker_id* out of rotation (crashed core). Idempotent."""
        self._down.add(worker_id)

    def is_down(self, worker_id: int) -> bool:
        """Whether *worker_id* has been marked down."""
        return worker_id in self._down

    def select(self) -> Optional[int]:
        """The worker to dispatch to next, or None if all are full.

        Least-outstanding first — keeping every worker's RX stash
        topped up evenly — with round-robin among ties so no worker is
        systematically favoured.
        """
        if self._total == self._full:
            # Every worker is at target (credit() caps each one), so the
            # scan below could only come back empty.
            return None
        outstanding = self._outstanding
        target = self.target
        n = self.n_workers
        down = self._down
        best: Optional[int] = None
        best_load: Optional[int] = None
        wid = self._rr_next
        for _ in range(n):
            if wid >= n:
                wid -= n
            if down and wid in down:
                wid += 1
                continue
            load = outstanding[wid]
            if load < target and (best_load is None or load < best_load):
                best, best_load = wid, load
                if load == 0:
                    # A later zero-load worker cannot displace an earlier
                    # one (ties keep the first in round-robin order).
                    break
            wid += 1
        if best is not None:
            self._rr_next = (best + 1) % n
        return best

    def credit(self, worker_id: int) -> None:
        """Record a dispatch toward *worker_id*."""
        if self._outstanding[worker_id] >= self.target:
            raise SchedulingError(
                f"worker {worker_id} already at target {self.target}")
        self._outstanding[worker_id] += 1
        self._total += 1
        if self._total > self.max_total:
            self.max_total = self._total

    def debit(self, worker_id: int) -> None:
        """Record a completion/preemption notification from *worker_id*."""
        if self._outstanding[worker_id] <= 0:
            raise SchedulingError(
                f"worker {worker_id} has no outstanding requests to debit")
        self._outstanding[worker_id] -= 1
        self._total -= 1

    def __repr__(self) -> str:
        return (f"<OutstandingTracker target={self.target} "
                f"loads={list(self._outstanding.values())}>")
