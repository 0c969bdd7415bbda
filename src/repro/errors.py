"""Exception hierarchy for the repro package.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A problem inside the discrete-event simulation engine."""


class SchedulingError(SimulationError):
    """The event loop was asked to do something impossible.

    Examples: scheduling an event in the past, or running a simulator
    that has already been stopped.
    """


class ProcessInterrupt(ReproError):
    """Raised inside a simulation process when it is interrupted.

    The interrupting party may attach an arbitrary ``cause`` describing
    why the interrupt happened (e.g. a preemption notice).
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self):
        return f"ProcessInterrupt(cause={self.cause!r})"


class QueueFullError(SimulationError):
    """A bounded queue rejected an item because it was at capacity."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class NetworkError(ReproError):
    """Base class for network-substrate errors."""


class AddressError(NetworkError):
    """A malformed or unknown network address was used."""


class DeliveryError(NetworkError):
    """A packet could not be delivered (no route / port down)."""


class HardwareError(ReproError):
    """Base class for hardware-model errors (CPU, timer, NIC)."""


class TimerError(HardwareError):
    """Invalid use of the local-APIC timer model."""


class FeedbackError(ReproError):
    """Invalid use of the host->NIC feedback plane.

    Example: shipping a :class:`~repro.core.feedback.WorkerStatus` for
    a worker id the destination status board does not track.
    """


class WorkloadError(ReproError):
    """An invalid workload specification (distribution, load level)."""


class ExperimentError(ReproError):
    """A failure while running an experiment harness."""


class SweepPointError(ExperimentError):
    """One sweep point failed to produce a result.

    Carries everything needed to triage (or retry) the point without
    the original spec in hand: the system label, the offered rate, the
    run config, how many attempts were made, and the underlying cause
    (also chained as ``__cause__``).  ``kind`` is the failure-taxonomy
    tag — one of ``"crash"``, ``"timeout"``, or ``"exception"`` —
    matched by the subclasses below.
    """

    #: Taxonomy tag; subclasses override.
    kind = "exception"

    def __init__(self, message, *, label="system", rate_rps=0.0,
                 attempts=1, config=None, cause=None):
        super().__init__(message)
        self.label = label
        self.rate_rps = rate_rps
        self.attempts = attempts
        self.config = config
        self.cause = cause
        self.__cause__ = cause

    def describe(self):
        """One operator-facing line: taxonomy, point identity, attempts."""
        return (f"[{self.kind}] {self.label} @{self.rate_rps:g} RPS "
                f"after {self.attempts} attempt(s): {self}")


class PointCrashError(SweepPointError):
    """A worker process died (killed, OOMed, or segfaulted) mid-point."""

    kind = "crash"


class PointTimeoutError(SweepPointError):
    """A point exceeded its wall-clock deadline and was killed."""

    kind = "timeout"


class PointExecutionError(SweepPointError):
    """The point's own code raised while simulating."""

    kind = "exception"


class SweepFailure(ExperimentError):
    """A sweep finished with one or more permanently failed points.

    Raised *after* every other point has completed (and been cached),
    so a re-run or ``--resume`` only pays for the failed points.
    ``failures`` holds the per-point :class:`SweepPointError`\\ s.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = [failure.describe() for failure in self.failures]
        super().__init__(
            f"{len(self.failures)} sweep point(s) permanently failed "
            f"(all other points completed and were cached):\n  "
            + "\n  ".join(lines))


class AnalysisError(ReproError):
    """A failure inside the static-analysis (lint) tooling itself."""


class SanitizerError(SimulationError):
    """A runtime determinism invariant was violated under ``--sanitize``.

    Raised by the sanitizing simulator the moment a check fails (clock
    regression, queue-accounting corruption, leaked request), with a
    diagnostic that localizes the divergence — including per-stream RNG
    draw counts when a registry is attached.
    """
