"""Workload generation: service-time distributions, arrivals, apps."""

from repro.workload.distributions import (
    ServiceTimeDistribution,
    Fixed,
    Exponential,
    Bimodal,
    BoundedPareto,
    Mixture,
    BIMODAL_FIG2,
)
from repro.workload.arrivals import ArrivalProcess, PoissonArrivals, UniformArrivals
from repro.workload.generator import OpenLoopLoadGenerator, ClientPool
from repro.workload.apps import (
    SyntheticApp,
    SpinApp,
    KvsApp,
    FaasApp,
)

__all__ = [
    "ServiceTimeDistribution",
    "Fixed",
    "Exponential",
    "Bimodal",
    "BoundedPareto",
    "Mixture",
    "BIMODAL_FIG2",
    "ArrivalProcess",
    "PoissonArrivals",
    "UniformArrivals",
    "OpenLoopLoadGenerator",
    "ClientPool",
    "SyntheticApp",
    "SpinApp",
    "KvsApp",
    "FaasApp",
]
