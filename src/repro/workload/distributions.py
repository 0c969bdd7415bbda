"""Service-time distributions.

The paper's synthetic requests "contain fake work that keeps the server
busy for a specific amount of time ... allow[ing] us to emulate
different workload distributions" (§4.1).  The evaluation uses:

- Fixed 1 µs, 5 µs, and 100 µs (Figures 3-6);
- the bimodal 99.5% @ 5 µs / 0.5% @ 100 µs (Figure 2), exported here
  as :data:`BIMODAL_FIG2`.

The bounded Pareto gives the FaaS example its heavy tail (§2.2's
high-variability workloads).  The exponential and the general mixture
are references: the M/M/c checks assume the first, and ``Bimodal`` is
checked against the second.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.units import us


class ServiceTimeDistribution:
    """Interface: sample service demands in nanoseconds."""

    def sample(self, rng: random.Random) -> float:
        """Draw one service time (ns)."""
        raise NotImplementedError  # pragma: no cover - interface

    def mean_ns(self) -> float:
        """Analytic mean (ns), used to express load as a fraction of
        capacity."""
        raise NotImplementedError  # pragma: no cover - interface

    def scv(self) -> float:
        """Squared coefficient of variation — the dispersion measure.

        0 for deterministic, 1 for exponential, >1 for the
        'highly-variable' workloads of §2.2.
        """
        raise NotImplementedError  # pragma: no cover - interface


class Fixed(ServiceTimeDistribution):
    """Deterministic service time (Figures 3-6)."""

    def __init__(self, value_ns: float):
        if value_ns < 0:
            raise WorkloadError(f"negative service time: {value_ns}")
        self.value_ns = value_ns

    def sample(self, rng: random.Random) -> float:
        return self.value_ns

    def mean_ns(self) -> float:
        return self.value_ns

    def scv(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"Fixed({self.value_ns:g}ns)"


class Exponential(ServiceTimeDistribution):
    """Exponentially distributed service time."""

    def __init__(self, mean_ns: float):
        if mean_ns <= 0:
            raise WorkloadError(f"mean must be positive: {mean_ns}")
        self._mean_ns = mean_ns

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean_ns)

    def mean_ns(self) -> float:
        return self._mean_ns

    def scv(self) -> float:
        return 1.0

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean_ns:g}ns)"


class Bimodal(ServiceTimeDistribution):
    """Two-point distribution — the canonical dispersion stressor.

    Figure 2's workload is ``Bimodal(us(5), us(100), p_slow=0.005)``.
    """

    def __init__(self, fast_ns: float, slow_ns: float, p_slow: float):
        if fast_ns < 0 or slow_ns < 0:
            raise WorkloadError("service times must be non-negative")
        if not 0.0 <= p_slow <= 1.0:
            raise WorkloadError(f"p_slow must be in [0,1]: {p_slow}")
        self.fast_ns = fast_ns
        self.slow_ns = slow_ns
        self.p_slow = p_slow

    def sample(self, rng: random.Random) -> float:
        if rng.random() < self.p_slow:
            return self.slow_ns
        return self.fast_ns

    def mean_ns(self) -> float:
        return (1.0 - self.p_slow) * self.fast_ns + self.p_slow * self.slow_ns

    def scv(self) -> float:
        mean = self.mean_ns()
        if mean <= 0:
            return 0.0
        second = ((1.0 - self.p_slow) * self.fast_ns ** 2
                  + self.p_slow * self.slow_ns ** 2)
        return (second - mean ** 2) / mean ** 2

    def __repr__(self) -> str:
        return (f"Bimodal({self.fast_ns:g}ns/{self.slow_ns:g}ns "
                f"p_slow={self.p_slow:g})")


#: Figure 2's workload: "99.5% of requests have a 5 µs service time and
#: 0.5% of requests have a 100 µs service time."
BIMODAL_FIG2 = Bimodal(fast_ns=us(5.0), slow_ns=us(100.0), p_slow=0.005)


class BoundedPareto(ServiceTimeDistribution):
    """Bounded Pareto — heavy tail with a hard cap (FaaS-style)."""

    def __init__(self, low_ns: float, high_ns: float, alpha: float = 1.1):
        if not 0 < low_ns < high_ns:
            raise WorkloadError(
                f"need 0 < low < high, got {low_ns}, {high_ns}")
        if alpha <= 0:
            raise WorkloadError(f"alpha must be positive: {alpha}")
        self.low_ns = low_ns
        self.high_ns = high_ns
        self.alpha = alpha

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        l_a = self.low_ns ** self.alpha
        h_a = self.high_ns ** self.alpha
        # Inverse-CDF of the bounded Pareto.
        x = (-(u * h_a - u * l_a - h_a) / (h_a * l_a)) ** (-1.0 / self.alpha)
        return min(max(x, self.low_ns), self.high_ns)

    def mean_ns(self) -> float:
        a, low, high = self.alpha, self.low_ns, self.high_ns
        if a == 1.0:
            return (math.log(high / low) * low * high / (high - low))
        num = low ** a / (1 - (low / high) ** a)
        return num * (a / (a - 1)) * (1 / low ** (a - 1) - 1 / high ** (a - 1))

    def scv(self) -> float:
        a, low, high = self.alpha, self.low_ns, self.high_ns
        mean = self.mean_ns()
        if a == 2.0:
            second = (2.0 * (low ** 2) / (1 - (low / high) ** 2)
                      * math.log(high / low))
        else:
            num = low ** a / (1 - (low / high) ** a)
            second = num * (a / (a - 2)) * (1 / low ** (a - 2)
                                            - 1 / high ** (a - 2))
        return (second - mean ** 2) / mean ** 2

    def __repr__(self) -> str:
        return (f"BoundedPareto([{self.low_ns:g},{self.high_ns:g}]ns "
                f"alpha={self.alpha:g})")


class Mixture(ServiceTimeDistribution):
    """A weighted mixture of distributions (co-located latency classes,
    §2.2-2: "multiple co-located applications from different latency
    classes")."""

    def __init__(self, components: Sequence[Tuple[float, ServiceTimeDistribution]]):
        if not components:
            raise WorkloadError("mixture needs at least one component")
        weights = [w for w, _dist in components]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise WorkloadError("weights must be non-negative and sum > 0")
        total = float(sum(weights))
        self.components: List[Tuple[float, ServiceTimeDistribution]] = [
            (w / total, dist) for w, dist in components]

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        acc = 0.0
        for weight, dist in self.components:
            acc += weight
            if u < acc:
                return dist.sample(rng)
        return self.components[-1][1].sample(rng)

    def mean_ns(self) -> float:
        return sum(w * d.mean_ns() for w, d in self.components)

    def scv(self) -> float:
        mean = self.mean_ns()
        if mean <= 0:
            return 0.0
        second = sum(w * (d.scv() + 1.0) * d.mean_ns() ** 2
                     for w, d in self.components)
        return (second - mean ** 2) / mean ** 2

    def __repr__(self) -> str:
        parts = ", ".join(f"{w:.3f}*{d!r}" for w, d in self.components)
        return f"Mixture({parts})"
