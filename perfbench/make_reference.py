"""Regenerate ``reference.json``: the per-point and per-figure metrics
digests of every workload at seed 42, which every benchmark run at that
seed is checked against.  Run from the root of a checkout::

    PYTHONPATH=src:. python3 -m perfbench.make_reference

Only regenerate it for a deliberate change of the program's outputs;
the fig2 figure digest must stay the repo's golden.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from perfbench.session import REFERENCE, REFERENCE_SEED, one_rep
from perfbench.workloads import WORKLOADS, Run

#: The committed full-scale Figure 2 golden (seed 42).
FIG2_GOLDEN = ("6cf80a3c0fedef8715b493f77836c658"
               "819ecf6c218ea670038a054db6f00dbc")


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as work:
        for workload in WORKLOADS.values():
            run = Run(workload, Path(work))
            rep = one_rep(run, workload, REFERENCE_SEED, workload.scale)
            run.discard()
            if rep.errors or len(rep.digests) != rep.expected:
                print(f"{workload.name}: {rep.errors}", file=sys.stderr)
                return 1
            reference[workload.name] = {"figures": rep.figure_digests,
                                        "points": rep.digests}
            print(f"{workload.name}: {len(rep.digests)} points, "
                  f"{rep.wall_s:.2f}s", file=sys.stderr)
    if reference["fig2-bimodal"]["figures"]["fig2"] != FIG2_GOLDEN:
        print("fig2 digest differs from the golden", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
