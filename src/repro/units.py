"""Time, rate, and size units used throughout the simulator.

The simulator clock counts **nanoseconds** stored in Python floats.  A
nanosecond base keeps the microsecond-scale quantities from the paper
(service times, hop latencies) at comfortable magnitudes while leaving
plenty of float precision for multi-second simulations.

Conventions
-----------
- All public APIs accept and return times in nanoseconds unless the
  parameter name says otherwise (``*_us``, ``*_cycles``).
- Rates are requests per second (RPS) or bits per second (bps).
- ``cycles_to_ns`` converts CPU cycle counts (the unit the paper reports
  for preemption costs) using a core clock in GHz.
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0


def ns(value: float) -> float:
    """Identity helper: *value* nanoseconds, for symmetric call sites."""
    return value * NS


def us(value: float) -> float:
    """Convert *value* microseconds to nanoseconds."""
    return value * US


def ms(value: float) -> float:
    """Convert *value* milliseconds to nanoseconds."""
    return value * MS


def seconds(value: float) -> float:
    """Convert *value* seconds to nanoseconds."""
    return value * SEC


def to_us(value_ns: float) -> float:
    """Convert nanoseconds to microseconds (for reporting)."""
    return value_ns / US


# --- CPU cycles ----------------------------------------------------------

def cycles_to_ns(cycles: float, clock_ghz: float) -> float:
    """Convert a cycle count at *clock_ghz* to nanoseconds.

    The paper reports preemption costs in cycles on a 2.3 GHz Xeon;
    e.g. ``cycles_to_ns(1272, 2.3)`` ≈ 553 ns.
    """
    if clock_ghz <= 0:
        raise ValueError(f"clock_ghz must be positive, got {clock_ghz}")
    return cycles / clock_ghz


# --- rates ---------------------------------------------------------------

def rps_to_interarrival_ns(rate_rps: float) -> float:
    """Mean interarrival gap (ns) for an arrival rate in requests/second."""
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    return SEC / rate_rps


# --- sizes / bandwidth ---------------------------------------------------

BYTE = 8  # bits
KIB = 1024
GBPS = 1e9  # bits per second


def goodput_bps(rate_rps: float, request_bytes: float) -> float:
    """Ethernet goodput implied by a request rate and request size.

    Used for the paper's §1 arithmetic: a 5 M RPS dispatcher moves
    2.5 Gbps of 64 B requests or 41 Gbps of 1 KiB requests.
    """
    return rate_rps * request_bytes * BYTE
