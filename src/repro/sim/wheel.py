"""Hierarchical timer wheel backing the simulator's far schedule.

The kernel splits pending events into a small *near* binary heap (owned
by :class:`~repro.sim.engine.Simulator`) and this wheel.  The near heap
holds every entry with ``when < near_end`` and is drained exactly like
the old single-heap kernel; the wheel holds everything at or beyond that
boundary, bucketed by time so pushes are O(1) appends instead of
O(log n) sifts through a million-entry heap.

Layout
------
Two levels of 256 slots each over a fixed power-of-two granularity
(so ``when // granularity`` is exact in floating point and bucket
classification can never disagree with heap ordering):

- **L0** covers a 256-slot window ``[cur0, w0_end)`` of slot ids; the
  cursor ``cur0`` is the next slot the drain will visit.
- **L1** covers ``[w0_end, w1_end)`` in 256-slot strides; when L0
  empties, the next occupied L1 bucket cascades down and becomes the
  new L0 window.
- **overflow** is a plain heap for entries at or beyond ``w1_end``
  (~1 s out at the default granularity) — far-future watchdogs and
  ``inf`` sentinels; when both levels drain, the windows re-seat at the
  overflow minimum and everything under them migrates onto the levels.

Ordering contract
-----------------
Entries are the engine's schedule tuples ``(when, key, item)``.
:meth:`next_batch` returns the full contents of the earliest occupied
slot — a half-open time window ``[.., end)`` — which the engine
heapifies into its near heap.  Because every entry left on the wheel has
``when >= end`` and every near entry has ``when < end``, the merged pop
order is exactly the single-heap total order, tie-breaks included (equal
timestamps can never straddle the boundary).

Empty-slot scans are O(1) amortized: per-level minimum-occupied-slot
hints (``l0_min`` / ``l1_min``) let sparse schedules (idle housekeeping
timers) jump straight to the next occupied bucket instead of walking
the window.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterator, List, Optional, Tuple

#: Slot width in simulated nanoseconds.  A power of two: ``when //
#: GRANULARITY`` is then exact for every float, so an entry's bucket is
#: a pure function of its timestamp and classification is monotone.
#: 2**14 ns (~16 µs) empirically balances near-heap size against
#: refill frequency at fig2 event densities; ordering is correct for
#: any power-of-two value (the property suite runs a small one to force
#: cascades).
GRANULARITY = 16384.0

#: Slots per level (must be a power of two; see the ``& _MASK`` paths).
SLOTS = 256
_MASK = SLOTS - 1

#: Compaction heuristics for lazily-cancelled overflow residents: only
#: rebuild once the dead fraction is both absolutely and relatively
#: significant, keeping the amortized cost O(1) per cancel.
_COMPACT_MIN = 64


class TimerWheel:
    """Two-level timer wheel with an overflow heap (see module docs)."""

    __slots__ = ("l0", "l1", "overflow", "count", "cur0", "w0_end",
                 "w1_end", "overflow_from", "l0_count", "l1_count",
                 "l0_min", "l1_min", "cancelled_overflow")

    def __init__(self, start_time: float = 0.0):
        id0 = int(start_time // GRANULARITY)
        self.l0: List[list] = [[] for _ in range(SLOTS)]
        self.l1: List[list] = [[] for _ in range(SLOTS)]
        self.overflow: list = []
        #: Total entries on the wheel (levels + overflow), including
        #: lazily-cancelled stragglers not yet compacted away.
        self.count = 0
        #: Next L0 slot id the drain will visit.  The engine's near
        #: boundary is always ``cur0 * GRANULARITY``.
        self.cur0 = id0 + 1
        #: Exclusive end of the L0 window, 256-slot aligned.
        self.w0_end = ((id0 >> 8) + 1) << 8
        #: Exclusive end of the L1 window, 65536-slot aligned.
        self.w1_end = ((id0 >> 16) + 1) << 16
        #: Entries at/past this absolute time go to the overflow heap.
        self.overflow_from = self.w1_end * GRANULARITY
        self.l0_count = 0
        self.l1_count = 0
        # Minimum-occupied-slot hints (lower bounds; sentinel = window end).
        self.l0_min = self.w0_end
        self.l1_min = self.w1_end >> 8
        self.cancelled_overflow = 0

    @property
    def near_end(self) -> float:
        """The near/wheel time boundary implied by the cursor."""
        return self.cur0 * GRANULARITY

    # -- producing ---------------------------------------------------------

    def push(self, entry: tuple) -> None:
        """File one schedule tuple; ``entry[0]`` must be >= the engine's
        near boundary (the caller routes nearer entries to its heap)."""
        when = entry[0]
        if when >= self.overflow_from:  # also catches +inf (no int() of it)
            heappush(self.overflow, entry)
            self.count += 1
            return
        id0 = int(when // GRANULARITY)
        if id0 < self.w0_end:
            self.l0[id0 & _MASK].append(entry)
            self.l0_count += 1
            if id0 < self.l0_min:
                self.l0_min = id0
        else:
            id1 = id0 >> 8
            self.l1[id1 & _MASK].append(entry)
            self.l1_count += 1
            if id1 < self.l1_min:
                self.l1_min = id1
        self.count += 1

    # -- draining ----------------------------------------------------------

    def next_batch(self) -> Optional[Tuple[list, float]]:
        """Remove and return ``(entries, end)`` for the earliest occupied
        slot: every pending entry with ``when < end``, unsorted.  The
        caller heapifies them and adopts ``end`` as its new near
        boundary.  Returns None when the wheel is empty."""
        if not self.count:
            return None
        while True:
            if self.l0_count:
                l0 = self.l0
                start = self.l0_min if self.l0_min > self.cur0 else self.cur0
                for id0 in range(start, self.w0_end):
                    bucket = l0[id0 & _MASK]
                    if bucket:
                        l0[id0 & _MASK] = []
                        taken = len(bucket)
                        self.l0_count -= taken
                        self.count -= taken
                        self.cur0 = id0 + 1
                        self.l0_min = id0 + 1
                        return bucket, (id0 + 1) * GRANULARITY
                raise AssertionError("timer wheel L0 accounting desync")
            if self.l1_count:
                self._cascade()
                continue
            if self.overflow:
                if self.overflow[0][0] == float("inf"):
                    # Only ``inf`` sentinels remain; windows cannot
                    # re-seat at infinity (``inf // GRANULARITY`` is
                    # NaN).  Hand them all over as one final batch —
                    # the caller's near boundary becomes ``inf``, so
                    # every later finite push routes to its heap and
                    # total order is preserved.
                    bucket = self.overflow
                    self.overflow = []
                    self.count -= len(bucket)
                    self.cancelled_overflow = 0
                    return bucket, float("inf")
                self._retarget()
                continue
            return None  # defensive: count drifted; treat as empty

    def _cascade(self) -> None:
        """Move the next occupied L1 bucket down into a fresh L0 window."""
        l1 = self.l1
        floor1 = self.w0_end >> 8
        start = self.l1_min if self.l1_min > floor1 else floor1
        for id1 in range(start, self.w1_end >> 8):
            bucket = l1[id1 & _MASK]
            if bucket:
                l1[id1 & _MASK] = []
                taken = len(bucket)
                self.l1_count -= taken
                base = id1 << 8
                # The new window starts exactly at this bucket's span;
                # everything still on the wheel is at or beyond it, so
                # the cursor can only move forward.
                self.cur0 = base
                self.w0_end = base + SLOTS
                self.l1_min = id1 + 1
                l0 = self.l0
                lo = self.w0_end
                for entry in bucket:
                    id0 = int(entry[0] // GRANULARITY)
                    l0[id0 & _MASK].append(entry)
                    if id0 < lo:
                        lo = id0
                self.l0_count += taken
                self.l0_min = lo
                return
        raise AssertionError("timer wheel L1 accounting desync")

    def _retarget(self) -> None:
        """Both levels drained: re-seat the windows at the overflow
        minimum and migrate every overflow entry that now falls under
        them.  Keeps the invariant that overflow only ever holds entries
        at/past ``overflow_from``."""
        overflow = self.overflow
        base = int(overflow[0][0] // GRANULARITY)
        self.cur0 = base
        self.w0_end = ((base >> 8) + 1) << 8
        self.w1_end = ((base >> 16) + 1) << 16
        self.overflow_from = threshold = self.w1_end * GRANULARITY
        l0 = self.l0
        l1 = self.l1
        lo0 = self.w0_end
        lo1 = self.w1_end >> 8
        while overflow and overflow[0][0] < threshold:
            entry = heappop(overflow)
            id0 = int(entry[0] // GRANULARITY)
            if id0 < self.w0_end:
                l0[id0 & _MASK].append(entry)
                self.l0_count += 1
                if id0 < lo0:
                    lo0 = id0
            else:
                id1 = id0 >> 8
                l1[id1 & _MASK].append(entry)
                self.l1_count += 1
                if id1 < lo1:
                    lo1 = id1
        self.l0_min = lo0
        self.l1_min = lo1
        # Migrated lazily-cancelled entries now ride the levels and are
        # skipped at dispatch; the overflow dead-count restarts.
        self.cancelled_overflow = 0

    # -- cancellation ------------------------------------------------------

    def discard(self, event, when: float) -> bool:
        """Withdraw *event*'s entry, scheduled at absolute time *when*.

        Level residents are removed eagerly (True).  Overflow residents
        are lazily marked — the caller already flagged the event
        cancelled — and compacted once dead entries dominate (True).
        Returns False when the entry has already been drained into the
        caller's near heap, which the caller then lazily compacts.
        """
        if when >= self.overflow_from:
            self.cancelled_overflow = dead = self.cancelled_overflow + 1
            if dead > _COMPACT_MIN and dead * 2 > len(self.overflow):
                self._compact_overflow()
            return True
        id0 = int(when // GRANULARITY)
        if id0 < self.cur0:
            return False  # already batched out to the near heap
        if id0 < self.w0_end:
            bucket = self.l0[id0 & _MASK]
            on_l0 = True
        elif id0 < self.w1_end:
            bucket = self.l1[(id0 >> 8) & _MASK]
            on_l0 = False
        else:  # pragma: no cover - excluded by the overflow_from check
            return False
        for i, entry in enumerate(bucket):
            if entry[2] is event:
                del bucket[i]
                self.count -= 1
                if on_l0:
                    self.l0_count -= 1
                else:
                    self.l1_count -= 1
                return True
        return False  # defensive: not found; let the caller skip it lazily

    def _compact_overflow(self) -> None:
        """Drop cancelled entries from the overflow heap in one pass."""
        live = [entry for entry in self.overflow
                if getattr(entry[2], "_state", 0) != 3]
        dropped = len(self.overflow) - len(live)
        if dropped:
            heapify(live)
            self.overflow = live
            self.count -= dropped
        self.cancelled_overflow = 0

    # -- inspection --------------------------------------------------------

    def peek_when(self) -> float:
        """Earliest pending timestamp on the wheel, or ``inf`` if empty.

        May report a lazily-cancelled entry's time (matching the near
        heap's own peek semantics).
        """
        if self.l0_count:
            l0 = self.l0
            start = self.l0_min if self.l0_min > self.cur0 else self.cur0
            for id0 in range(start, self.w0_end):
                bucket = l0[id0 & _MASK]
                if bucket:
                    self.l0_min = id0
                    return min(entry[0] for entry in bucket)
        if self.l1_count:
            l1 = self.l1
            floor1 = self.w0_end >> 8
            start = self.l1_min if self.l1_min > floor1 else floor1
            for id1 in range(start, self.w1_end >> 8):
                bucket = l1[id1 & _MASK]
                if bucket:
                    self.l1_min = id1
                    return min(entry[0] for entry in bucket)
        if self.overflow:
            return self.overflow[0][0]
        return float("inf")

    def entries(self) -> Iterator[tuple]:
        """All resident schedule tuples, in no particular order."""
        for bucket in self.l0:
            yield from bucket
        for bucket in self.l1:
            yield from bucket
        yield from self.overflow

    def __repr__(self) -> str:
        return (f"<TimerWheel n={self.count} l0={self.l0_count} "
                f"l1={self.l1_count} overflow={len(self.overflow)} "
                f"cur0={self.cur0}>")
