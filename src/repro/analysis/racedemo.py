"""A deliberately tie-break-sensitive model: the planted race.

The race detector must demonstrably *catch* something, or a green run
proves nothing.  This module is that something:
:class:`RacyAccumulator` schedules two zero-delay handlers at the same
instant whose effects do not commute, so the fuzzer
(``repro race --inject``) observes the order digest diverging between
tie-break permutations.

Nothing in the production tree imports this module.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from repro.sim.engine import Simulator
from repro.sim.tiebreak import TieBreakPolicy


class RacyAccumulator:
    """Two same-instant handlers folding into one shared accumulator.

    ``_stir`` and ``_fold`` do not commute (the fold is affine with
    different coefficients), so the value of ``mix`` after each round —
    and the ``order`` trace — depend on which handler dispatched first.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.order: List[str] = []
        self.mix = 1.0

    def arm(self) -> None:
        """Schedule one same-instant ``_stir``/``_fold`` pair.

        The planted race: two zero-delay callbacks into shared state,
        dispatched in whatever order the tie-break policy says.
        """
        self.sim.defer(0.0, self._stir)
        self.sim.defer(0.0, self._fold)

    def _stir(self) -> None:
        self.order.append("stir")
        self.mix = self.mix * 2.0 + 1.0

    def _fold(self) -> None:
        self.order.append("fold")
        self.mix = self.mix * 3.0 + 5.0


#: Rounds per injected run: each round is one same-instant pair, so the
#: chance a non-identity permutation preserves every pair is ~2**-64.
ROUNDS = 64


def run_injected(policy: Optional[TieBreakPolicy] = None) -> str:
    """Digest of one injected run under *policy* (None = FIFO).

    Arms :data:`ROUNDS` same-instant handler pairs at distinct
    timestamps and digests the interleaving trace plus the final
    accumulator value.  Identical digests across policies would mean
    the planted race went undetected.
    """
    sim = Simulator()
    if policy is not None:
        sim.set_tiebreak(policy)
    model = RacyAccumulator(sim)
    for round_index in range(ROUNDS):
        sim.defer(float(round_index), model.arm)
    sim.run()
    payload = json.dumps([model.order, model.mix.hex()], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
