"""Fault scenarios as data: the :class:`FaultPlan` and its spec parser.

A plan is a frozen, picklable dataclass tree so it can ride a
:class:`~repro.experiments.harness.RunConfig` into parallel executor
worker processes, and its deterministic ``repr`` can fingerprint cache
keys.  All probabilities are per-packet / per-message; all times are
simulated nanoseconds.

The CLI surface is :func:`parse_fault_spec`, a comma-separated
``key=value`` grammar::

    repro run --system shinjuku-offload --rate 300e3 \\
        --faults "link-loss=0.02,timeout-us=200,retries=2"

    repro run --system rss --rate 200e3 \\
        --faults "crash=0@150,timeout-us=300"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.units import us


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be a probability in [0, 1]: {value}")


def _check_nonneg(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be non-negative: {value}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-packet wire faults, applied at each Stingray fabric traversal.

    Loss and corruption both destroy the packet (a corrupt frame fails
    its FCS at the receiver and is dropped there); they are counted
    separately.  Reordering delays delivery by ``reorder_delay_ns``,
    letting later packets overtake.  ``scope`` restricts the faults to
    fabric hops whose name (``nic:<nic name>``) starts with the prefix
    ('' = every hop).
    """

    loss_prob: float = 0.0
    corrupt_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay_ns: float = us(2.0)
    scope: str = ""

    def __post_init__(self):
        _check_prob("link loss_prob", self.loss_prob)
        _check_prob("link corrupt_prob", self.corrupt_prob)
        _check_prob("link reorder_prob", self.reorder_prob)
        _check_nonneg("reorder_delay_ns", self.reorder_delay_ns)
        total = self.loss_prob + self.corrupt_prob + self.reorder_prob
        if total > 1.0:
            raise ConfigError(
                f"link fault probabilities sum to {total}, must be <= 1")

    @property
    def active(self) -> bool:
        """Whether any wire fault can fire."""
        return (self.loss_prob > 0 or self.corrupt_prob > 0
                or self.reorder_prob > 0)


@dataclass(frozen=True)
class FeedbackFaults:
    """Faults on the host->NIC feedback plane (§3.2's load updates)."""

    #: Probability each status update is lost in transit.
    loss_prob: float = 0.0
    #: Extra delay added to every surviving update (stale feedback).
    staleness_ns: float = 0.0

    def __post_init__(self):
        _check_prob("feedback loss_prob", self.loss_prob)
        _check_nonneg("feedback staleness_ns", self.staleness_ns)

    @property
    def active(self) -> bool:
        """Whether any feedback-plane fault can fire."""
        return self.loss_prob > 0 or self.staleness_ns > 0


@dataclass(frozen=True)
class WorkerFaults:
    """Scheduled worker-core misbehaviour.

    ``crashes`` are ``(worker_id, at_ns)`` pairs: the core dies at
    ``at_ns`` and never recovers.  ``stalls`` and ``stragglers`` are
    ``(worker_id, start_ns, duration_ns)`` windows: a stalled core
    freezes until the window ends before starting new work; a straggler
    executes service demand ``straggler_factor`` times slower for
    requests started inside the window.
    """

    crashes: Tuple[Tuple[int, float], ...] = ()
    stalls: Tuple[Tuple[int, float, float], ...] = ()
    stragglers: Tuple[Tuple[int, float, float], ...] = ()
    straggler_factor: float = 4.0

    def __post_init__(self):
        for worker_id, at_ns in self.crashes:
            if worker_id < 0:
                raise ConfigError(f"crash worker_id must be >= 0: {worker_id}")
            _check_nonneg("crash at_ns", at_ns)
        for label, windows in (("stall", self.stalls),
                               ("straggler", self.stragglers)):
            for worker_id, start_ns, duration_ns in windows:
                if worker_id < 0:
                    raise ConfigError(
                        f"{label} worker_id must be >= 0: {worker_id}")
                _check_nonneg(f"{label} start_ns", start_ns)
                if duration_ns <= 0:
                    raise ConfigError(
                        f"{label} duration_ns must be positive: {duration_ns}")
        if self.straggler_factor < 1.0:
            raise ConfigError(
                f"straggler_factor must be >= 1: {self.straggler_factor}")

    @property
    def active(self) -> bool:
        """Whether any worker fault is scheduled."""
        return bool(self.crashes or self.stalls or self.stragglers)


@dataclass(frozen=True)
class QueueFaults:
    """Dispatcher queue pressure: tighten every TaskQueue bound."""

    #: Capacity cap applied to every task queue in the system (never
    #: loosens an already-tighter bound).  None = leave queues alone.
    capacity: Optional[int] = None

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError(
                f"queue capacity must be >= 1: {self.capacity}")

    @property
    def active(self) -> bool:
        """Whether task-queue capacities are being tightened."""
        return self.capacity is not None


@dataclass(frozen=True)
class RecoveryPlan:
    """The recovery machinery a run opts into (all off by default).

    ``timeout_ns`` arms a per-request reaper at ingress: a request
    still unserved after the deadline is dropped with reason
    ``timeout`` (and re-armed while it is actively executing).
    ``max_retries`` bounds re-injections of requests lost on the wire,
    spaced by exponential backoff; it also bounds crashed-worker
    failover re-steers.  ``staleness_threshold_ns`` arms the
    feedback-staleness detector: when the status board has heard from
    no worker for longer than the threshold, steering falls back to
    blind round-robin.
    """

    timeout_ns: float = 0.0
    max_retries: int = 0
    retry_backoff_ns: float = us(20.0)
    backoff_multiplier: float = 2.0
    staleness_threshold_ns: float = 0.0

    def __post_init__(self):
        _check_nonneg("timeout_ns", self.timeout_ns)
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0: {self.max_retries}")
        if self.retry_backoff_ns <= 0:
            raise ConfigError(
                f"retry_backoff_ns must be positive: {self.retry_backoff_ns}")
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff_multiplier must be >= 1: {self.backoff_multiplier}")
        _check_nonneg("staleness_threshold_ns", self.staleness_threshold_ns)

    @property
    def active(self) -> bool:
        """Whether any recovery mechanism is opted into."""
        return (self.timeout_ns > 0 or self.max_retries > 0
                or self.staleness_threshold_ns > 0)


@dataclass(frozen=True)
class FaultPlan:
    """One complete fault scenario plus the recovery it opts into."""

    link: LinkFaults = field(default_factory=LinkFaults)
    feedback: FeedbackFaults = field(default_factory=FeedbackFaults)
    workers: WorkerFaults = field(default_factory=WorkerFaults)
    queues: QueueFaults = field(default_factory=QueueFaults)
    recovery: RecoveryPlan = field(default_factory=RecoveryPlan)

    @property
    def is_null(self) -> bool:
        """True when the plan changes nothing (bit-identical runs)."""
        return not (self.link.active or self.feedback.active
                    or self.workers.active or self.queues.active
                    or self.recovery.active)


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"--faults {key}: not a number: {value!r}") from None


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"--faults {key}: not an integer: {value!r}") from None


def _parse_window(key: str, value: str) -> Tuple[int, float, float]:
    """``WID@START_US+DUR_US`` -> (worker_id, start_ns, duration_ns)."""
    head, sep, dur = value.partition("+")
    wid, sep2, start = head.partition("@")
    if not sep or not sep2:
        raise ConfigError(
            f"--faults {key}: expected WID@START_US+DUR_US, got {value!r}")
    return (_parse_int(key, wid), us(_parse_float(key, start)),
            us(_parse_float(key, dur)))


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the ``--faults`` comma-separated ``key=value`` grammar.

    Keys (times in microseconds, probabilities in [0, 1]):

    - ``link-loss`` / ``link-corrupt`` / ``link-reorder`` — per-packet
      probabilities; ``reorder-delay-us``, ``link-scope`` tune them.
    - ``feedback-loss`` / ``feedback-stale-us`` — feedback-plane faults.
    - ``crash=WID@US`` — kill worker WID at the given time (repeatable).
    - ``stall=WID@US+US`` / ``straggle=WID@US+US`` — freeze or slow
      worker WID for a window (repeatable); ``straggle-factor``.
    - ``queue-cap=N`` — cap every dispatcher task queue at N entries.
    - ``timeout-us`` / ``retries`` / ``backoff-us`` / ``backoff-mult``
      / ``stale-after-us`` — the recovery machinery.
    """
    link_kwargs: dict = {}
    feedback_kwargs: dict = {}
    crashes: list = []
    stalls: list = []
    stragglers: list = []
    worker_kwargs: dict = {}
    queue_kwargs: dict = {}
    recovery_kwargs: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise ConfigError(f"--faults: expected key=value, got {item!r}")
        if key == "link-loss":
            link_kwargs["loss_prob"] = _parse_float(key, value)
        elif key == "link-corrupt":
            link_kwargs["corrupt_prob"] = _parse_float(key, value)
        elif key == "link-reorder":
            link_kwargs["reorder_prob"] = _parse_float(key, value)
        elif key == "reorder-delay-us":
            link_kwargs["reorder_delay_ns"] = us(_parse_float(key, value))
        elif key == "link-scope":
            link_kwargs["scope"] = value
        elif key == "feedback-loss":
            feedback_kwargs["loss_prob"] = _parse_float(key, value)
        elif key == "feedback-stale-us":
            feedback_kwargs["staleness_ns"] = us(_parse_float(key, value))
        elif key == "crash":
            wid, sep2, at = value.partition("@")
            if not sep2:
                raise ConfigError(
                    f"--faults crash: expected WID@US, got {value!r}")
            crashes.append((_parse_int(key, wid), us(_parse_float(key, at))))
        elif key == "stall":
            stalls.append(_parse_window(key, value))
        elif key == "straggle":
            stragglers.append(_parse_window(key, value))
        elif key == "straggle-factor":
            worker_kwargs["straggler_factor"] = _parse_float(key, value)
        elif key == "queue-cap":
            queue_kwargs["capacity"] = _parse_int(key, value)
        elif key == "timeout-us":
            recovery_kwargs["timeout_ns"] = us(_parse_float(key, value))
        elif key == "retries":
            recovery_kwargs["max_retries"] = _parse_int(key, value)
        elif key == "backoff-us":
            recovery_kwargs["retry_backoff_ns"] = us(_parse_float(key, value))
        elif key == "backoff-mult":
            recovery_kwargs["backoff_multiplier"] = _parse_float(key, value)
        elif key == "stale-after-us":
            recovery_kwargs["staleness_threshold_ns"] = \
                us(_parse_float(key, value))
        else:
            raise ConfigError(f"--faults: unknown key {key!r} in {item!r}")
    return FaultPlan(
        link=LinkFaults(**link_kwargs),
        feedback=FeedbackFaults(**feedback_kwargs),
        workers=WorkerFaults(crashes=tuple(crashes), stalls=tuple(stalls),
                             stragglers=tuple(stragglers), **worker_kwargs),
        queues=QueueFaults(**queue_kwargs),
        recovery=RecoveryPlan(**recovery_kwargs),
    )
