"""Figure 3: max moving distance range [d-, d+] on real (Meetup-like) data.

Expected shape: scores rise with the distance budget for all six approaches;
the proposed approaches dominate the baselines throughout.
"""

import time

from conftest import (
    assert_proposed_beat_baselines,
    assert_trend,
    roadnet_counter_totals,
    roadnet_metric_factory,
)

from repro.experiments import runner
from repro.experiments.report import format_sweep
from repro.experiments.runner import run_fig3


def test_fig03_real_distance(benchmark, record_result):
    result = benchmark.pedantic(
        run_fig3, kwargs={"seed": 7, "scale": 1.0}, rounds=1, iterations=1
    )
    record_result("fig03_real_distance", format_sweep(result))

    assert_proposed_beat_baselines(result)
    assert_trend(result.scores_of("Greedy"), "up")
    assert_trend(result.scores_of("Game"), "up")
    assert_trend(result.scores_of("Closest"), "up")


def test_fig03_roadnet_variant(record_result, record_bench_json, monkeypatch):
    """The same sweep on a street grid instead of straight-line distances.

    Road distances dominate euclidean ones, so absolute scores drop; the
    qualitative shape (scores rise with the distance budget, the proposed
    approach stays useful) must survive the substrate swap.  The run's
    roadnet counters land in the trajectory file so CI can watch how much
    settling the real workload costs.  ``wall_ms`` leaves out generating
    the Meetup-like populations, which the road network does not touch;
    that time is the ``generation_ms`` counter.
    """
    networks = []
    factory = roadnet_metric_factory(networks=networks)
    generate = runner._real_instance
    generation_s = [0.0]

    def timed_generate(*args, **kwargs):
        began = time.perf_counter()
        instance = generate(*args, **kwargs)
        generation_s[0] += time.perf_counter() - began
        return instance

    monkeypatch.setattr(runner, "_real_instance", timed_generate)
    started = time.perf_counter()
    result = run_fig3(
        seed=7, scale=0.5, approaches=["Greedy", "Closest"], metric_factory=factory
    )
    wall_ms = (time.perf_counter() - started - generation_s[0]) * 1000.0
    record_result("fig03_roadnet_variant", format_sweep(result))

    greedy = result.scores_of("Greedy")
    assert sum(greedy) > 0
    assert_trend(greedy, "up")
    assert networks, "the factory never built a network"

    totals = roadnet_counter_totals(networks)
    record_bench_json(
        "fig03_roadnet_variant",
        {
            "experiment": "fig3",
            "scale": 0.5,
            "approaches": "Greedy,Closest",
            "grid": "12x12 per sweep point",
            "family": "repro.bench/roadnet/v1",
        },
        wall_ms,
        dict(
            totals,
            networks=float(len(networks)),
            greedy_total=float(sum(greedy)),
            generation_ms=round(generation_s[0] * 1000.0, 3),
        ),
    )
