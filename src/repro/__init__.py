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

Every public name resolves on first use (PEP 562): ``import repro``
loads only this file and :mod:`repro.version`, and ``from repro import
RunConfig`` imports only the module that defines ``RunConfig`` and
what that module needs.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

import importlib

from repro.version import __version__

#: Public name -> the module that defines it, grouped by layer.
_EXPORTS = {
    name: module
    for module, names in (
        # simulation kernel
        ("repro.sim.engine", ("Simulator",)),
        ("repro.sim.rng", ("RngRegistry",)),
        # configuration
        ("repro.config", (
            "HostCosts", "ArmCosts", "OffloadWorkerCosts",
            "HostMachineConfig", "StingrayConfig", "IdealNicConfig",
            "PreemptionConfig", "ShinjukuConfig", "ShinjukuOffloadConfig")),
        # workloads
        ("repro.workload.distributions", (
            "Fixed", "Exponential", "Bimodal", "BoundedPareto", "Mixture",
            "BIMODAL_FIG2")),
        ("repro.workload.arrivals", ("PoissonArrivals", "UniformArrivals")),
        ("repro.workload.generator", ("OpenLoopLoadGenerator", "ClientPool")),
        ("repro.workload.apps", ("SpinApp", "KvsApp", "FaasApp")),
        # systems
        ("repro.systems.shinjuku", ("ShinjukuSystem",)),
        ("repro.systems.shinjuku_offload", ("ShinjukuOffloadSystem",)),
        ("repro.systems.rss_system", ("RssSystem", "RssSystemConfig")),
        ("repro.systems.workstealing", (
            "WorkStealingSystem", "WorkStealingConfig")),
        ("repro.systems.mica_system", ("MicaSystem", "MicaSystemConfig")),
        ("repro.systems.rpcvalet", ("RpcValetSystem", "RpcValetConfig")),
        ("repro.systems.ideal_offload", (
            "IdealOffloadSystem", "ideal_offload_config")),
        ("repro.systems.sharded_shinjuku", (
            "ShardedShinjukuConfig", "ShardedShinjukuSystem")),
        ("repro.systems.elastic_rss", (
            "ElasticRssConfig", "ElasticRssSystem")),
        ("repro.systems.registry", (
            "SystemEntry", "list_systems", "register_system")),
        ("repro.core.pacing", ("BacklogAdvertiser", "JustInTimePacer")),
        # metrics
        ("repro.metrics.collector", ("MetricsCollector",)),
        ("repro.metrics.summary", (
            "LatencySummary", "ThroughputSummary", "RunMetrics")),
        # analysis
        ("repro.analysis.queueing", (
            "erlang_c", "mm1_mean_sojourn_ns", "mmc_mean_sojourn_ns",
            "mg1_mean_sojourn_ns")),
        # experiments
        ("repro.experiments.harness", (
            "RunConfig", "run_point", "load_sweep", "measure_capacity")),
        ("repro.experiments.executor", (
            "ConfiguredFactory", "PointSpec", "ResultCache", "SweepExecutor",
            "make_executor")),
        ("repro.experiments.figures", (
            "figure2", "figure3", "figure4", "figure5", "figure6")),
        ("repro.experiments.tables", ("table_t1",)),
        ("repro.experiments.report", ("render_figure", "render_t1")),
    )
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    """Import a public name's module on first use and keep the value."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    """Loaded attributes plus every public name not yet imported."""
    return sorted(set(globals()) | set(_EXPORTS))
