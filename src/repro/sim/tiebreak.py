"""Tie-break policies: the seam the schedule-permutation fuzzer drives.

Events scheduled for the same ``(when, priority)`` instant are ordered
by a *tie key*.  Historically that key was the raw scheduling sequence
number — FIFO order of scheduling — and every consumer of the kernel
implicitly assumed that order either does not matter or is exactly what
it wanted.  This module makes that assumption explicit and testable: a
:class:`TieBreakPolicy` maps each sequence number through a seeded
*bijective* affine mix

.. code-block:: text

    key = (seq * mult + add) mod 2**64        (mult odd => bijection)

so equal-timestamp events are dispatched in a deterministically
*permuted* order, while events at different timestamps (or priorities)
are untouched — ``when`` and ``priority`` still dominate the schedule
tuple comparison.  Because the mix is a bijection, distinct sequence
numbers always yield distinct keys and the schedule keeps a total
order; tuple comparison never falls through to the event objects.

Policy index 0 is the **identity** (``mult=1, add=0``): byte-for-byte
the historical FIFO order, pinned by the golden differential suites.
``repro race --permutations N`` replays runs under indices ``0..N-1``
and asserts the metrics digest is invariant — turning "we believe FIFO
ties don't matter" into a checked property (see
:mod:`repro.analysis.racecheck`).

Every push site in the kernel honors the policy by drawing its key from
one source, ``Simulator._next_key``: ``map(policy.key, count(1))``
under a permutation, a plain ``count(1)`` under the identity.  That
covers the near heap, the timer wheel (keys are baked into the schedule
tuple before bucketing), and the inlined fast paths in
:mod:`repro.sim.engine`, :mod:`repro.sim.events`,
:mod:`repro.sim.primitives` and :mod:`repro.sim.process`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import SimulationError

#: Tie keys live in [0, 2**64): plenty of headroom above any realistic
#: event count, and the affine mix is a bijection on this ring.
TB_MASK = (1 << 64) - 1

#: Environment variable carrying a policy spec (``"<index>"`` or
#: ``"<index>:<seed>"``); read by the harness so parallel worker
#: processes inherit the permutation, exactly like ``REPRO_SANITIZE``.
TIEBREAK_ENV = "REPRO_TIEBREAK"


@dataclass(frozen=True)
class TieBreakPolicy:
    """One deterministic ordering of equal-timestamp events.

    ``mult`` must be odd (so the affine map is a bijection mod 2**64);
    the constructor enforces it.  ``index``/``seed`` are carried for
    reporting only — the kernel consumes just ``mult`` and ``add``.
    """

    mult: int = 1
    add: int = 0
    index: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.mult <= TB_MASK) or self.mult % 2 == 0:
            raise SimulationError(
                f"tie-break mult must be odd and in [1, 2**64): {self.mult}")
        if not (0 <= self.add <= TB_MASK):
            raise SimulationError(
                f"tie-break add must be in [0, 2**64): {self.add}")

    @property
    def is_identity(self) -> bool:
        """True for the historical FIFO order (key == seq)."""
        return self.mult == 1 and self.add == 0

    def key(self, seq: int) -> int:
        """The tie key for sequence number *seq* (the simulator maps
        this over ``count(1)`` to make its key source)."""
        return (seq * self.mult + self.add) & TB_MASK

    def __repr__(self) -> str:
        tag = "identity" if self.is_identity else "perm"
        return (f"<TieBreakPolicy {tag} index={self.index} "
                f"seed={self.seed}>")


#: The historical FIFO order; what every simulator starts with.
FIFO = TieBreakPolicy()


def permutation_policy(index: int, seed: int = 0) -> TieBreakPolicy:
    """Policy number *index* of the seeded permutation family.

    Index 0 is always the identity (FIFO), regardless of *seed*, so
    ``range(permutations)`` sweeps always include the historical order
    as their baseline.  Higher indices derive an odd multiplier and an
    offset from BLAKE2b over ``(seed, index)`` — stable across
    platforms, Python versions, and ``PYTHONHASHSEED``.
    """
    if index < 0:
        raise SimulationError(f"permutation index must be >= 0: {index}")
    if index == 0:
        return TieBreakPolicy(index=0, seed=seed)
    digest = hashlib.blake2b(f"repro.tiebreak|{seed}|{index}".encode("utf-8"),
                             digest_size=16).digest()
    mult = int.from_bytes(digest[:8], "big") | 1
    add = int.from_bytes(digest[8:], "big")
    return TieBreakPolicy(mult=mult, add=add, index=index, seed=seed)


def parse_tiebreak_spec(spec: str) -> TieBreakPolicy:
    """Parse ``"<index>"`` or ``"<index>:<seed>"`` into a policy."""
    text = spec.strip()
    try:
        if ":" in text:
            index_text, seed_text = text.split(":", 1)
            return permutation_policy(int(index_text), int(seed_text))
        return permutation_policy(int(text))
    except ValueError as exc:
        raise SimulationError(
            f"bad {TIEBREAK_ENV} spec {spec!r}; expected "
            "'<index>' or '<index>:<seed>'") from exc


def tiebreak_from_env(env: Optional[Dict[str, str]] = None
                      ) -> Optional[TieBreakPolicy]:
    """The policy ``REPRO_TIEBREAK`` asks for, or None when unset/empty.

    *env* defaults to ``os.environ``.  An identity spec (``"0"``)
    returns the identity policy object rather than None, so callers can
    still distinguish "explicitly FIFO" from "unconfigured".
    """
    if env is None:
        env = os.environ  # type: ignore[assignment]
    value = env.get(TIEBREAK_ENV, "").strip()
    if not value:
        return None
    return parse_tiebreak_spec(value)
