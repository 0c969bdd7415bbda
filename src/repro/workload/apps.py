"""Synthetic applications.

The paper's evaluation uses pure spin-work requests (§4.1); the intro
motivates the problem with key-value stores and function-as-a-service
(§1).  One app class per workload the examples run, so they exercise
realistic request mixes through the same API.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import WorkloadError
from repro.runtime.request import Request
from repro.units import us
from repro.workload.distributions import (
    BoundedPareto,
    Fixed,
    ServiceTimeDistribution,
)


class SyntheticApp:
    """Interface: a factory of application requests."""

    def make_request(self, rng: random.Random, now_ns: float) -> Request:
        """Build one request arriving at *now_ns*."""
        raise NotImplementedError  # pragma: no cover - interface


class SpinApp(SyntheticApp):
    """The paper's fake-work app: spin for a sampled duration (§4.1)."""

    def __init__(self, distribution: ServiceTimeDistribution):
        self.distribution = distribution

    def make_request(self, rng: random.Random, now_ns: float) -> Request:
        return Request(service_ns=self.distribution.sample(rng),
                       arrival_ns=now_ns)

    def __repr__(self) -> str:
        return f"SpinApp({self.distribution!r})"


class KvsApp(SyntheticApp):
    """A memcached-style key-value store (§1's KVS motivation).

    GETs are fast and uniform; SETs slightly slower; keys follow a
    Zipf-like popularity so MICA-style key-based steering sees skew.
    """

    def __init__(self, n_keys: int = 10_000, get_ratio: float = 0.95,
                 get_service: Optional[ServiceTimeDistribution] = None,
                 set_service: Optional[ServiceTimeDistribution] = None,
                 zipf_s: float = 0.99):
        if n_keys < 1:
            raise WorkloadError(f"n_keys must be >= 1: {n_keys}")
        if not 0.0 <= get_ratio <= 1.0:
            raise WorkloadError(f"get_ratio must be in [0,1]: {get_ratio}")
        self.n_keys = n_keys
        self.get_ratio = get_ratio
        self.get_service = get_service if get_service is not None else Fixed(us(1.0))
        self.set_service = set_service if set_service is not None else Fixed(us(2.0))
        self.zipf_s = zipf_s
        # Precompute the Zipf CDF once (costly for large n otherwise).
        weights = [1.0 / (k + 1) ** zipf_s for k in range(n_keys)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def _sample_key(self, rng: random.Random) -> int:
        u = rng.random()
        # Binary search the CDF.
        lo, hi = 0, self.n_keys - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def make_request(self, rng: random.Random, now_ns: float) -> Request:
        is_get = rng.random() < self.get_ratio
        dist = self.get_service if is_get else self.set_service
        key = self._sample_key(rng)
        request = Request(service_ns=dist.sample(rng), arrival_ns=now_ns,
                          key=key)
        request.user_data = "GET" if is_get else "SET"
        return request

    def __repr__(self) -> str:
        return (f"KvsApp(keys={self.n_keys} get={self.get_ratio:.0%} "
                f"zipf={self.zipf_s})")


class FaasApp(SyntheticApp):
    """Function-as-a-service (§1/[21]): heavy-tailed execution times.

    Most invocations are short; a bounded-Pareto tail reaches into the
    hundreds of microseconds — the dispersion regime where preemption
    earns its keep.
    """

    def __init__(self, low_us: float = 2.0, high_us: float = 500.0,
                 alpha: float = 1.2):
        self.distribution = BoundedPareto(us(low_us), us(high_us), alpha)

    def make_request(self, rng: random.Random, now_ns: float) -> Request:
        return Request(service_ns=self.distribution.sample(rng),
                       arrival_ns=now_ns)

    def __repr__(self) -> str:
        return f"FaasApp({self.distribution!r})"
