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

    def where(sweep, point):
        return (f"{sweep.system_name} at {point.offered_rps:,.0f} RPS, "
                f"REPRO_BENCH_SCALE={scale}, "
                f"{point.metrics.throughput.completed} completions")

    # Offload reaches at least Shinjuku's saturation throughput.
    assert offload.max_achieved_rps() >= 0.95 * shinjuku.max_achieved_rps(), (
        f"Offload peak {offload.max_achieved_rps():,.0f} RPS < 0.95 x "
        f"Shinjuku peak {shinjuku.max_achieved_rps():,.0f} RPS "
        f"(REPRO_BENCH_SCALE={scale})")

    # Preemption keeps the pre-knee tail bounded: at the lightest load
    # both systems' p99 sits far below the 100 us straggler class.
    # Below scale 0.3 the lightest point has too few completions for
    # that (see conftest.py).
    for sweep in (shinjuku, offload):
        light = sweep.points[0]
        assert light.p99_ns < 50_000.0, (
            f"lightest-load p99 {light.p99_ns:,.0f} ns >= 50,000 ns: "
            f"{where(sweep, light)}")

    # Both knees exist inside the swept range (tail grows >5x overall).
    for sweep in (shinjuku, offload):
        light, heavy = sweep.points[0], sweep.points[-1]
        assert heavy.p99_ns > 5.0 * light.p99_ns, (
            f"no knee: p99 {heavy.p99_ns:,.0f} ns ({where(sweep, heavy)}) "
            f"is not > 5 x {light.p99_ns:,.0f} ns ({where(sweep, light)})")
