"""Complete served systems: the paper's prototypes and all baselines.

Each system registers itself with :mod:`repro.systems.registry` when
its module is imported; a lookup by name imports that system's module
(the registry's ``SYSTEM_MODULES`` table), so callers that resolve
systems by name (``repro --system``, :func:`repro.systems.registry.build`,
by-name executor factories) never import them by hand.
"""
