"""Complete served systems: the paper's prototypes and all baselines.

Each system registers itself with :mod:`repro.systems.registry` when
its module is imported; the registry imports every system module (its
``SYSTEM_MODULES`` tuple) on the first lookup, so callers that resolve
systems by name (``repro --system``, :func:`repro.systems.registry.build`,
by-name executor factories) never import them by hand.
"""
