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

from repro.core.preemption import PreemptionDriver
from repro.core.feedback import (
    FeedbackChannel,
    WorkerStatus,
    CoreStatusBoard,
)
from repro.core.nic_dispatcher import NicDispatcherPipeline
from repro.core.nic_scan import NicPreemptionScanner
from repro.core.pacing import BacklogAdvertiser, JustInTimePacer
from repro.core.queuing import OutstandingTracker
from repro.core.policy import (
    CacheAffinityPolicy,
    CentralizedFifoPolicy,
    SchedulingPolicy,
    StrictRoundRobinPolicy,
)
from repro.core.ideal import ideal_nic_config

__all__ = [
    "PreemptionDriver",
    "FeedbackChannel",
    "WorkerStatus",
    "CoreStatusBoard",
    "NicDispatcherPipeline",
    "NicPreemptionScanner",
    "BacklogAdvertiser",
    "JustInTimePacer",
    "OutstandingTracker",
    "CacheAffinityPolicy",
    "CentralizedFifoPolicy",
    "SchedulingPolicy",
    "StrictRoundRobinPolicy",
    "ideal_nic_config",
]
