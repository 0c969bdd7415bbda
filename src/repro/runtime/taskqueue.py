"""The centralized task queue (§3.4.1).

"The dispatcher receives requests from the networker and places them
into a FIFO task queue. ... If the request has been preempted, the
dispatcher adds the request to the end of the task queue."

:class:`TaskQueue` implements that FIFO plus two alternative orderings
used by the ablation studies: shortest-remaining-first (an idealized
policy the centralized queue *could* run) and a strict priority lane
for latency classes.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from typing import Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.runtime.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.events import Event


class QueuePolicy(enum.Enum):
    """Ordering discipline of the central queue."""

    FIFO = "fifo"
    #: Shortest remaining processing time first (ablation).
    SRPT = "srpt"


class TaskQueue:
    """Centralized request queue with blocking event-based dequeue.

    Parameters
    ----------
    sim:
        Owning simulator.
    policy:
        FIFO reproduces the paper; SRPT is available for ablations.
    capacity:
        Optional bound; :meth:`enqueue` returns False and marks the
        request dropped when full (on-NIC SRAM is finite, §3.2-3).
    """

    def __init__(self, sim: "Simulator", policy: QueuePolicy = QueuePolicy.FIFO,
                 capacity: Optional[int] = None, name: str = "taskq"):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.policy = policy
        self.capacity = capacity
        self.name = name
        self._fifo: Deque[Request] = deque()
        self._srpt: List[Tuple[float, int, Request]] = []
        self._tiebreak = itertools.count()
        #: Blocked dequeues as ``(wait start, rank, event)``, in service
        #: order.
        self._getters: Deque[Tuple[float, int, "Event"]] = deque()
        self._deq_label = f"deq:{name}"
        #: Diagnostics.
        self.enqueued = 0
        self.dropped = 0
        self.max_depth = 0

    def __len__(self) -> int:
        if self.policy is QueuePolicy.FIFO:
            return len(self._fifo)
        return len(self._srpt)

    def restrict_capacity(self, capacity: int) -> None:
        """Tighten the capacity bound (fault injection). Never loosens."""
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        if self.capacity is None or capacity < self.capacity:
            self.capacity = capacity

    # -- enqueue ----------------------------------------------------------------

    def enqueue(self, request: Request) -> bool:
        """Add *request* (new or preempted) to the queue tail.

        Returns False (and marks the request DROPPED) when at capacity.
        """
        # Hand directly to a waiting dispatcher if any.
        getters = self._getters
        while getters:
            _since, _rank, getter = getters.popleft()
            if getter._state == 0:  # pending (avoid the property hop)
                request.state = RequestState.QUEUED
                stamps = request.stamps
                if "queued" not in stamps:
                    stamps["queued"] = self.sim.now
                self.enqueued += 1
                # The head getter is fixed by the model, not by the tie
                # order of the dequeue calls: the longest waiter, and
                # among waiters since one instant the lowest rank.
                getter.succeed(request)
                return True
        container = (self._fifo if self.policy is QueuePolicy.FIFO
                     else self._srpt)
        if self.capacity is not None and len(container) >= self.capacity:
            self.dropped += 1
            request.state = RequestState.DROPPED
            return False
        request.state = RequestState.QUEUED
        stamps = request.stamps
        if "queued" not in stamps:
            stamps["queued"] = self.sim.now
        self.enqueued += 1
        if container is self._fifo:
            container.append(request)
        else:
            heapq.heappush(self._srpt, (request.remaining_ns,
                                        next(self._tiebreak), request))
        depth = len(container)
        if depth > self.max_depth:
            self.max_depth = depth
        return True

    # -- dequeue ----------------------------------------------------------------

    def dequeue(self, rank: int = 0) -> "Event":
        """Event-valued removal of the head request (blocks while empty).

        Blocked callers are served longest-waiting first; callers that
        began waiting at one instant are served in *rank* order (a
        worker passes its id), so which consumer gets the next request
        never depends on the tie order of their calls.
        """
        ev = self.sim.event(label=self._deq_label)
        ok, request = self.try_dequeue()
        if ok:
            ev.succeed(request)
            return ev
        now = self.sim.now
        getters = self._getters
        # Waits start in clock order, so ">= now" means "since now".
        slot = len(getters)
        while slot and getters[slot - 1][0] >= now \
                and getters[slot - 1][1] > rank:
            slot -= 1
        getters.insert(slot, (now, rank, ev))
        return ev

    def try_dequeue(self) -> Tuple[bool, Optional[Request]]:
        """Non-blocking removal: ``(True, request)`` or ``(False, None)``."""
        if self.policy is QueuePolicy.FIFO:
            if self._fifo:
                return True, self._fifo.popleft()
            return False, None
        if self._srpt:
            _remaining, _tie, request = heapq.heappop(self._srpt)
            return True, request
        return False, None

    def cancel_dequeue(self, event: "Event") -> None:
        """Withdraw a pending :meth:`dequeue`."""
        for entry in self._getters:
            if entry[2] is event:
                self._getters.remove(entry)
                return

    def peek(self) -> Optional[Request]:
        """The request that would be dequeued next, or None."""
        if self.policy is QueuePolicy.FIFO:
            return self._fifo[0] if self._fifo else None
        return self._srpt[0][2] if self._srpt else None

    def __repr__(self) -> str:
        return (f"<TaskQueue {self.name!r} {self.policy.value} "
                f"depth={len(self)} dropped={self.dropped}>")
