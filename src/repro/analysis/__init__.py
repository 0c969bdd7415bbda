"""Analysis tooling: closed-form queueing models plus the determinism
gate (static lint, runtime sanitizer and the schedule-permutation
fuzzer) that guards the bit-identical reproduction guarantee.

Only the lint baseline's file name lives here.  Each tool is imported
from its own module by the code that uses it: the queueing models from
:mod:`repro.analysis.queueing`, the sanitizer by a sanitized point
alone, the lint tool chain (``lint``, ``rules``, ``report``) by
``repro lint``, and the fuzzer (``racefuzz``, ``racedemo``,
``report``) by ``repro race``.
"""

#: Default name of the checked-in lint baseline file.
BASELINE_FILENAME = ".repro-lint-baseline.json"
