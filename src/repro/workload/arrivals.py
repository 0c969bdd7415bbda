"""Arrival processes for the open-loop load generator.

The paper uses "an open loop load generator similar to mutilate [25]
that transmits requests over UDP" (§4).  Open-loop means arrivals keep
coming regardless of server progress, so queueing delays show up as
latency instead of silently throttling offered load — essential for
honest tail-latency-vs-throughput curves.
"""

from __future__ import annotations

import math
import random

from repro.errors import WorkloadError
from repro.units import rps_to_interarrival_ns


def _checked_rate(rate_rps: float) -> float:
    """*rate_rps* itself; NaN, infinite or non-positive rates raise."""
    if not (math.isfinite(rate_rps) and rate_rps > 0):
        raise WorkloadError(f"rate must be positive and finite: {rate_rps}")
    return rate_rps


class ArrivalProcess:
    """Interface: successive interarrival gaps in nanoseconds."""

    rate_rps: float

    def next_gap_ns(self, rng: random.Random) -> float:
        """Draw the gap to the next arrival (ns)."""
        raise NotImplementedError  # pragma: no cover - interface


class PoissonArrivals(ArrivalProcess):
    """Poisson arrivals — exponential interarrival gaps."""

    def __init__(self, rate_rps: float):
        self.rate_rps = _checked_rate(rate_rps)
        self._mean_gap_ns = rps_to_interarrival_ns(rate_rps)

    def next_gap_ns(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean_gap_ns)

    def __repr__(self) -> str:
        return f"PoissonArrivals({self.rate_rps:g} rps)"


class UniformArrivals(ArrivalProcess):
    """Deterministic (paced) arrivals: constant gaps.

    Useful for isolating service-time effects from arrival burstiness
    in unit tests and ablations.
    """

    def __init__(self, rate_rps: float):
        self.rate_rps = _checked_rate(rate_rps)
        self._gap_ns = rps_to_interarrival_ns(rate_rps)

    def next_gap_ns(self, rng: random.Random) -> float:
        return self._gap_ns

    def __repr__(self) -> str:
        return f"UniformArrivals({self.rate_rps:g} rps)"
