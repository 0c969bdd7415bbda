"""Figure 2 — tail latency vs throughput, bimodal 99.5%/0.5% workload.

Paper setup: 99.5% of requests take 5 µs, 0.5% take 100 µs; the
preemption time slice is 10 µs; Shinjuku runs 3 workers (networker +
dispatcher burn a host core), Shinjuku-Offload runs 4 workers with up
to 4 outstanding requests.

Shape criteria (recorded in EXPERIMENTS.md):
- both systems hold a bounded p99 under dispersion until their knees;
- Shinjuku-Offload sustains at least as much load as Shinjuku.
"""

from conftest import emit

from repro.experiments.figures import figure2
from repro.experiments.report import render_figure


def test_figure2_bimodal(benchmark, run_config, scale, executor):
    result = benchmark.pedantic(
        lambda: figure2(config=run_config, scale=scale, executor=executor),
        rounds=1, iterations=1)
    emit(render_figure(result))

    by_name = {s.system_name: s for s in result.sweeps}
    shinjuku = by_name["Shinjuku"]
    offload = by_name["Shinjuku-Offload"]

    # Offload reaches at least Shinjuku's saturation throughput.
    assert offload.max_achieved_rps() >= 0.95 * shinjuku.max_achieved_rps()

    # Preemption keeps the pre-knee tail bounded: at the lightest load
    # both systems' p99 sits far below the 100 us straggler class.
    assert shinjuku.points[0].p99_ns < 50_000.0
    assert offload.points[0].p99_ns < 50_000.0

    # Both knees exist inside the swept range (tail grows >5x overall).
    for sweep in (shinjuku, offload):
        assert sweep.points[-1].p99_ns > 5.0 * sweep.points[0].p99_ns
