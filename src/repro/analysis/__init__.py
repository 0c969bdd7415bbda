"""Analysis tooling: closed-form queueing models plus the determinism
gate (static lint + runtime sanitizer) that guards the bit-identical
reproduction guarantee.

Only the queueing models and the lint baseline's file name are
exported here.  Importing the package runs this file, and every run
imports :mod:`repro.analysis.sanitizer`; the lint tool chain (``lint``,
``rules``, ``callgraph``, ``racecheck``, ``report``) is imported from
its own modules by the commands that use it, so neither a run nor the
CLI's start-up loads it.
"""

from repro.analysis.queueing import (
    erlang_c,
    mm1_mean_sojourn_ns,
    mmc_mean_sojourn_ns,
    mg1_mean_sojourn_ns,
    mm1_sojourn_percentile_ns,
    utilization,
)

#: Default name of the checked-in lint baseline file.
BASELINE_FILENAME = ".repro-lint-baseline.json"

__all__ = [
    "BASELINE_FILENAME",
    "erlang_c",
    "mm1_mean_sojourn_ns",
    "mmc_mean_sojourn_ns",
    "mg1_mean_sojourn_ns",
    "mm1_sojourn_percentile_ns",
    "utilization",
]
