"""The paper's core contribution: informed request scheduling at the NIC.

- :mod:`~repro.core.preemption` — time-slice preemption drivers for
  the four interrupt mechanisms the paper discusses (§3.4.4, §5.1-3).
- :mod:`~repro.core.feedback` — host->NIC load-feedback channels
  (§2.3's missing abstraction; a fixed-latency channel and the status
  board it updates).
- :mod:`~repro.core.nic_dispatcher` — the three-ARM-core dispatcher
  pipeline (§3.4.1).
- :mod:`~repro.core.queuing` — the outstanding-request queuing
  optimization (§3.4.5).
- :mod:`~repro.core.policy` — centralized scheduling policies.
- :mod:`~repro.core.ideal` — the §3.1 ideal-SmartNIC parameterization.
"""
