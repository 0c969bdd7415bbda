"""Exact-percentile latency reservoirs.

Simulation runs complete at most a few hundred thousand requests, so we
keep every sample and compute exact percentiles — no sketch error in
the tail, which matters when the statistic of record is p99 ("we refer
to the 99th percentile latency as the tail latency", §4).

Reservoirs are mergeable (:class:`~repro.metrics.scope.MergeableCollector`):
every reported statistic is a function of the sorted sample multiset,
so folding two reservoirs is exactly equivalent to one reservoir having
recorded both sample streams, regardless of recording or merge order.
The sorted view is computed once per mutation epoch and cached; ``add``,
``extend``, and ``merge_from`` all invalidate it.

The mean sums the sorted view in numpy's float64 pairwise order (see
:func:`_pairwise_sum`), so every digest taken when this module used
numpy still holds without it.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import List, Optional, Sequence

from repro.errors import ExperimentError

#: Longest run :func:`_pairwise_sum` adds with eight accumulators
#: instead of splitting (numpy's ``PW_BLOCKSIZE``).
_BLOCK = 128


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum *values* in numpy's float64 ``add.reduce`` order.

    Under 8 values: one by one from ``0.0``.  Up to 128: eight strided
    accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    then the tail one by one.  Above that: the two halves, split at a
    multiple of 8, summed separately and added.  Every step is a plain
    float ``+``; ``sum()`` and ``math.fsum`` round differently (and
    ``sum()`` differently again from Python 3.12 on).
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= _BLOCK:
        end = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = (
            reduce(add, values[j:end:8]) for j in range(8))
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        return reduce(add, values[end:], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


class LatencyReservoir:
    """Stores every sample; computes exact quantiles on demand."""

    def __init__(self):
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def add(self, value: float) -> None:
        """Record one sample (ns)."""
        self._samples.append(value)
        self._sorted = None  # invalidate cache

    def extend(self, values: Sequence[float]) -> None:
        """Record many samples at once."""
        self._samples.extend(values)
        self._sorted = None

    # -- merging -----------------------------------------------------------

    def merge_from(self, other: "LatencyReservoir") -> None:
        """Fold *other*'s samples into this reservoir.

        Equivalent to having recorded both sample streams into one
        reservoir: every statistic reads from the sorted multiset, so
        the result is bit-identical however the samples were split.
        """
        self._samples.extend(other._samples)
        self._sorted = None

    def merged(self, other: "LatencyReservoir") -> "LatencyReservoir":
        """A new reservoir holding both inputs' samples."""
        result = LatencyReservoir()
        result._samples = self._samples + other._samples
        return result

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def empty(self) -> bool:
        """True while no samples have been recorded."""
        return not self._samples

    def _view(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def percentile(self, p: float) -> float:
        """Exact percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ExperimentError(f"percentile out of range: {p}")
        if not self._samples:
            raise ExperimentError("percentile of an empty reservoir")
        view = self._view()
        # 'lower' interpolation: the observed sample at or below rank —
        # what a latency-measurement tool actually reports.  The tiny
        # epsilon keeps exact ranks (e.g. p99.9 of 1000) from being
        # pushed up a slot by float rounding in p/100*n.
        rank = p / 100.0 * len(view)
        index = min(len(view) - 1, math.ceil(rank - 1e-9) - 1)
        return float(view[max(0, index)])

    def mean(self) -> float:
        """Arithmetic mean of all samples, summed in sorted order."""
        if not self._samples:
            raise ExperimentError("mean of an empty reservoir")
        view = self._view()
        # numpy's reduction starts from the identity 0.0 (so an all
        # -0.0 reservoir has mean 0.0, as before).
        return (0.0 + _pairwise_sum(view)) / len(view)

    def maximum(self) -> float:
        """Largest recorded sample."""
        if not self._samples:
            raise ExperimentError("max of an empty reservoir")
        return float(self._view()[-1])

    def minimum(self) -> float:
        """Smallest recorded sample."""
        if not self._samples:
            raise ExperimentError("min of an empty reservoir")
        return float(self._view()[0])

    def samples(self) -> List[float]:
        """A new list of all samples, in ascending order."""
        return list(self._view())

    def __repr__(self) -> str:
        return f"<LatencyReservoir n={len(self._samples)}>"
