"""Generic one-factor sensitivity sweeps.

The ablation benches each hand-roll a loop over one parameter; this
module is the reusable version: vary a single knob, hold everything
else fixed, and collect the standard metrics per value.  Used by
downstream studies that want to probe calibration robustness (e.g.
"how sensitive is Figure 6's crossover to the ARM packet-TX cost?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    default_executor,
)
from repro.experiments.harness import RunConfig, SystemFactory
from repro.metrics.summary import RunMetrics
from repro.workload.distributions import ServiceTimeDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.executor import SweepExecutor


@dataclass(frozen=True)
class SensitivityPoint:
    """One (parameter value, metrics) pair of a sweep."""

    value: Any
    metrics: RunMetrics

    @property
    def p99_us(self) -> float:
        """Tail latency at this value, microseconds (NaN if no samples)."""
        if self.metrics.latency is None:
            return float("nan")
        return self.metrics.latency.p99_ns / 1e3

    @property
    def achieved_krps(self) -> float:
        """Measured throughput at this value, thousands of RPS."""
        return self.metrics.throughput.achieved_rps / 1e3


@dataclass
class SensitivityResult:
    """A completed sweep over one parameter."""

    parameter: str
    points: List[SensitivityPoint]

    def values(self) -> List[Any]:
        """The swept parameter values, in order."""
        return [point.value for point in self.points]

    def series_p99_us(self) -> List[float]:
        """p99 per swept value."""
        return [point.p99_us for point in self.points]

    def series_achieved_krps(self) -> List[float]:
        """Throughput per swept value."""
        return [point.achieved_krps for point in self.points]

    def best_value(self, lower_is_better: bool = True) -> Any:
        """The swept value with the best p99."""
        chooser = min if lower_is_better else max
        return chooser(self.points, key=lambda p: p.p99_us).value

    def monotone_p99(self, increasing: bool = True,
                     tolerance: float = 0.05) -> bool:
        """True if p99 is monotone across the sweep (within noise)."""
        series = self.series_p99_us()
        slack = 1.0 + tolerance
        if increasing:
            return all(b <= a * slack or b >= a / slack
                       for a, b in zip(series, series[1:])) and \
                all(b >= a / slack for a, b in zip(series, series[1:]))
        return all(b <= a * slack for a, b in zip(series, series[1:]))


def sweep_parameter(parameter: str, values: Sequence[Any],
                    factory_for: Callable[[Any], SystemFactory],
                    rate_rps: float,
                    distribution: ServiceTimeDistribution,
                    config: Optional[RunConfig] = None,
                    executor: Optional["SweepExecutor"] = None,
                    ) -> SensitivityResult:
    """Run one point per parameter value.

    Parameters
    ----------
    parameter:
        Display name of the knob being varied.
    values:
        The values to sweep, in order.
    factory_for:
        Maps one value to a system factory (fresh per point).
    rate_rps, distribution, config:
        Shared load conditions across all points.
    executor:
        Optional sweep executor (default: the in-process
        :func:`~repro.experiments.executor.default_executor`); the grid
        is one batch, so points may run in worker processes and/or hit
        the result cache.  Point order always matches *values* order.
    """
    if not values:
        raise ExperimentError("empty sweep")
    run_config = config if config is not None else RunConfig()
    specs = [PointSpec(factory=factory_for(value), rate_rps=rate_rps,
                       distribution=distribution, config=run_config,
                       label=f"{parameter}={value!r}")
             for value in values]
    all_metrics = (executor or default_executor()).run_points(specs)
    points = [SensitivityPoint(value=value, metrics=metrics)
              for value, metrics in zip(values, all_metrics)]
    return SensitivityResult(parameter=parameter, points=points)


def sweep_system_parameter(system: str, parameter: str,
                           values: Sequence[Any],
                           config_for: Callable[[Any], Any],
                           rate_rps: float,
                           distribution: ServiceTimeDistribution,
                           config: Optional[RunConfig] = None,
                           executor: Optional["SweepExecutor"] = None,
                           ) -> SensitivityResult:
    """:func:`sweep_parameter` with the system resolved by registry name.

    ``config_for`` maps each swept value to a system config; every
    point then runs ``ConfiguredFactory.by_name(system, config)``, so
    the sweep is picklable (parallel-executor safe) and cache-stable
    without the caller importing any system class.
    """
    return sweep_parameter(
        parameter, values,
        lambda value: ConfiguredFactory.by_name(system, config_for(value)),
        rate_rps, distribution, config=config, executor=executor)
