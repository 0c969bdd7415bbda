"""A figure, and table T1, is one executor batch.

A figure call hands every point it needs, both systems' sweeps
together, to one ``run_points`` call; table T1 runs its simulated
points through the executor it is given, so its cache serves a re-run.
"""

from repro.experiments.executor import make_executor
from repro.experiments.figures import figure2, figure3
from repro.experiments.harness import RunConfig
from repro.experiments.tables import table_t1
from repro.units import ms

TINY = RunConfig(seed=7, horizon_ns=ms(1.0), warmup_ns=ms(0.2))


def test_every_event_of_one_figure_call_carries_one_batch():
    executor = make_executor()
    fig2_events, fig3_events = [], []
    figure = figure2(config=TINY, rates=[200e3, 400e3], executor=executor,
                     on_event=fig2_events.append)
    figure3(config=TINY, outstanding=(1, 3), worker_counts=(4,),
            executor=executor, on_event=fig3_events.append)
    for events in (fig2_events, fig3_events):
        assert events
        assert len({event.batch for event in events}) == 1
    assert {event.label for event in fig2_events} == {"Shinjuku",
                                                      "Shinjuku-Offload"}
    assert [sweep.system_name for sweep in figure.sweeps] == \
        ["Shinjuku-Offload", "Shinjuku"]


def test_table_t1_reruns_from_the_executor_cache(tmp_path):
    first = make_executor(cache_dir=tmp_path)
    rows = table_t1(TINY, executor=first)
    assert first.stats.points_run == 3

    again = make_executor(cache_dir=tmp_path)
    assert table_t1(TINY, executor=again) == rows
    assert again.stats.points_run == 0
    assert again.stats.points_cached == 3
    assert again.stats.events_executed == 0
