"""Deterministic scenario-driven fault injection.

The paper evaluates every system on a healthy fabric; this package asks
the follow-up question — *how gracefully does each design degrade when
the fabric misbehaves?* — without giving up a single bit of
reproducibility.  A :class:`~repro.faults.plan.FaultPlan` describes a
scenario (link loss/corruption/reorder, feedback loss and staleness,
worker crash/stall/straggler windows, shrunken dispatcher queues); a
:class:`~repro.faults.injector.FaultInjector` executes it from
sanctioned ``faults.*`` RNG streams, so the same seed and plan always
produce the same run, across the serial, parallel, and cached
executors alike.

Recovery is opt-in and lives in :mod:`repro.faults.recovery`:
per-request timeouts with bounded exponential-backoff retry,
crashed-worker failover that re-steers orphans, and a
staleness-detecting policy wrapper that falls back to blind round-robin
when the feedback plane goes quiet.
"""
