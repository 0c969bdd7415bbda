"""repro — a simulation reproduction of "Mind the Gap: A Case for
Informed Request Scheduling at the NIC" (HotNets '19).

The package builds, from scratch, everything the paper's prototype
rests on — a discrete-event kernel, a packet-level network substrate,
host-CPU/timer/interrupt/SmartNIC hardware models — and on top of them
the paper's contribution (informed, preemptive request scheduling on
the NIC) plus every baseline the paper discusses.

Quick start::

    from repro import (
        RunConfig, run_point, ConfiguredFactory,
        ShinjukuOffloadConfig, BIMODAL_FIG2,
    )

    factory = ConfiguredFactory.by_name(
        "shinjuku-offload", ShinjukuOffloadConfig(workers=4))
    metrics = run_point(factory, rate_rps=300e3,
                        distribution=BIMODAL_FIG2, config=RunConfig())
    print(metrics.latency.p99_ns / 1e3, "us")

Every served system is registered by name in ``repro.systems.registry``
(``python -m repro.cli systems`` lists the catalog); ``by_name``
factories are picklable and cache-fingerprint-identical to their
by-class equivalents.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.version import __version__

# -- simulation kernel ---------------------------------------------------------
from repro.sim import Simulator, RngRegistry, Tracer

# -- configuration ---------------------------------------------------------------
from repro.config import (
    HostCosts,
    ArmCosts,
    OffloadWorkerCosts,
    HostMachineConfig,
    StingrayConfig,
    IdealNicConfig,
    PreemptionConfig,
    ShinjukuConfig,
    ShinjukuOffloadConfig,
)

# -- workloads ---------------------------------------------------------------------
from repro.workload import (
    Fixed,
    Exponential,
    Bimodal,
    LogNormal,
    BoundedPareto,
    Uniform,
    Mixture,
    BIMODAL_FIG2,
    PoissonArrivals,
    UniformArrivals,
    OpenLoopLoadGenerator,
    ClientPool,
    SpinApp,
    KvsApp,
    FaasApp,
)

# -- systems -----------------------------------------------------------------------
from repro.systems import (
    ShinjukuSystem,
    ShinjukuOffloadSystem,
    RssSystem,
    WorkStealingSystem,
    MicaSystem,
    RpcValetSystem,
    IdealOffloadSystem,
)
from repro.systems import (
    ShardedShinjukuConfig,
    ShardedShinjukuSystem,
    ElasticRssConfig,
    ElasticRssSystem,
)
from repro.systems import (
    SystemEntry,
    list_systems,
    register_system,
)
from repro.core.pacing import BacklogAdvertiser, JustInTimePacer
from repro.systems.rss_system import RssSystemConfig
from repro.systems.workstealing import WorkStealingConfig
from repro.systems.mica_system import MicaSystemConfig
from repro.systems.rpcvalet import RpcValetConfig
from repro.systems.ideal_offload import ideal_offload_config

# -- metrics ------------------------------------------------------------------------
from repro.metrics import (
    MetricsCollector,
    LatencySummary,
    ThroughputSummary,
    RunMetrics,
)

# -- analysis -----------------------------------------------------------------------
from repro.analysis import (
    erlang_c,
    mm1_mean_sojourn_ns,
    mmc_mean_sojourn_ns,
    mg1_mean_sojourn_ns,
)

# -- experiments ----------------------------------------------------------------------
from repro.experiments import (
    RunConfig,
    run_point,
    load_sweep,
    measure_capacity,
    find_saturation,
    SaturationResult,
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    SweepExecutor,
    make_executor,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    table_t1,
    render_figure,
    render_t1,
)

__all__ = [
    "__version__",
    # kernel
    "Simulator", "RngRegistry", "Tracer",
    # config
    "HostCosts", "ArmCosts", "OffloadWorkerCosts", "HostMachineConfig",
    "StingrayConfig", "IdealNicConfig", "PreemptionConfig",
    "ShinjukuConfig", "ShinjukuOffloadConfig",
    # workloads
    "Fixed", "Exponential", "Bimodal", "LogNormal", "BoundedPareto",
    "Uniform", "Mixture", "BIMODAL_FIG2", "PoissonArrivals",
    "UniformArrivals", "OpenLoopLoadGenerator", "ClientPool",
    "SpinApp", "KvsApp", "FaasApp",
    # systems
    "ShinjukuSystem", "ShinjukuOffloadSystem", "RssSystem",
    "WorkStealingSystem", "MicaSystem", "RpcValetSystem",
    "IdealOffloadSystem", "ShardedShinjukuConfig", "ShardedShinjukuSystem",
    "ElasticRssConfig", "ElasticRssSystem", "BacklogAdvertiser",
    "JustInTimePacer", "RssSystemConfig", "WorkStealingConfig",
    "MicaSystemConfig", "RpcValetConfig", "ideal_offload_config",
    "SystemEntry", "list_systems", "register_system",
    # metrics
    "MetricsCollector", "LatencySummary", "ThroughputSummary", "RunMetrics",
    # analysis
    "erlang_c", "mm1_mean_sojourn_ns", "mmc_mean_sojourn_ns",
    "mg1_mean_sojourn_ns",
    # experiments
    "RunConfig", "run_point", "load_sweep", "measure_capacity",
    "find_saturation", "SaturationResult", "ConfiguredFactory",
    "PointSpec", "ResultCache", "SweepExecutor", "make_executor",
    "figure2", "figure3", "figure4", "figure5",
    "figure6", "table_t1", "render_figure", "render_t1",
]
