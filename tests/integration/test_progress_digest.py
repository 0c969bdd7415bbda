"""Full-scale Figure 2 digest with progress streaming enabled.

The acceptance bar for the streaming-metrics refactor: running the
canonical fig2 sweep through an executor with live progress
subscribers (console-style accumulator plus the on-disk ledger) must
produce the exact committed digest — the event stream observes the
sweep, it never perturbs it.

The sweep takes several seconds at scale 1.0, so the test is gated
behind ``REPRO_FIG2_DIGEST=1``; CI's differential job sets it (with
``REPRO_SANITIZE=1``, proving the pin holds on the sanitizing engine
too).  Locally::

    REPRO_FIG2_DIGEST=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_progress_digest.py
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.executor import make_executor, metrics_digest
from repro.experiments.figures import figure2
from repro.experiments.harness import RunConfig
from repro.experiments.progress import (
    ProgressLedger,
    SweepProgress,
    ledger_path,
    multiplex,
)

#: The committed golden: SHA-256 over the canonical JSON image of all
#: eighteen full-scale fig2 points (seed 42).  Pinned since the bench
#: harness landed; the scoped-collector refactor must not move it.
FIG2_DIGEST = ("6cf80a3c0fedef8715b493f77836c658"
               "819ecf6c218ea670038a054db6f00dbc")

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_FIG2_DIGEST", "") in ("", "0"),
    reason="full-scale fig2 digest check (set REPRO_FIG2_DIGEST=1)")


def test_streamed_fullscale_fig2_matches_committed_digest(tmp_path):
    jobs = int(os.environ.get("REPRO_TEST_JOBS", "1"))
    progress = SweepProgress()
    ledger = ProgressLedger.in_cache_dir(str(tmp_path))
    executor = make_executor(jobs=jobs, cache_dir=str(tmp_path),
                             on_event=multiplex(progress, ledger))
    try:
        figure = figure2(config=RunConfig(seed=42), scale=1.0,
                         executor=executor)
    finally:
        ledger.write_done()
    all_metrics = [point.metrics for sweep in figure.sweeps
                   for point in sweep.points]
    assert metrics_digest(all_metrics) == FIG2_DIGEST

    # >= 1 event per point, every point settled, and the on-disk ledger
    # replays to the same scoreboard a live watcher saw.
    assert progress.expected == 18
    assert progress.settled == 18
    assert progress.events_seen >= 18
    events = ProgressLedger.read_events(ledger_path(str(tmp_path)))
    replayed = SweepProgress()
    replayed.replay(events)
    assert replayed.settled == 18
    assert replayed.done
    rendering = replayed.render()
    assert "sweep complete" in rendering
    for label in progress.labels():
        assert label in rendering
