"""Analysis tooling: closed-form queueing models plus the determinism
gate (static lint + runtime sanitizer) that guards the bit-identical
reproduction guarantee.

Only the queueing models are re-exported here.  Importing the package
runs this file, and every run imports :mod:`repro.analysis.sanitizer`;
the lint tool chain (``lint``, ``rules``, ``callgraph``, ``racecheck``,
``report``) is imported from its own modules by the commands that use
it, so a run never loads it.
"""

from repro.analysis.queueing import (
    erlang_c,
    mm1_mean_sojourn_ns,
    mmc_mean_sojourn_ns,
    mg1_mean_sojourn_ns,
    mm1_sojourn_percentile_ns,
    utilization,
)

__all__ = [
    "erlang_c",
    "mm1_mean_sojourn_ns",
    "mmc_mean_sojourn_ns",
    "mg1_mean_sojourn_ns",
    "mm1_sojourn_percentile_ns",
    "utilization",
]
