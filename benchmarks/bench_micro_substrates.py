"""Micro-benchmarks of the substrates (proper multi-round timings).

These are conventional pytest-benchmark measurements of the inner building
blocks: instance load, the Hungarian solver, Hopcroft-Karp, a standalone
feasibility build (a one-shot engine) and a single greedy/game batch.
Useful for tracking performance regressions; they reproduce no specific
paper figure.
"""

import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.algorithms.baselines import ClosestBaseline
from repro.algorithms.game import DASCGame
from repro.algorithms.greedy import DASCGreedy
from repro.core.instance import ProblemInstance
from repro.datagen.distributions import Range
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.context import BatchContext
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import INFEASIBLE, hungarian
from repro.simulation.platform import Platform

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perfbench.reference import reference_s, slowness  # noqa: E402


@pytest.fixture(scope="module")
def batch_instance():
    return generate_synthetic(SyntheticConfig(seed=3).scaled(0.06))  # 300x300


def make_feasibility_instance():
    """Long presence windows keep entities in the pool across many batches,
    so per-batch feasibility construction dominates the simulation — the
    regime the allocation engine's incremental graph targets.  Module-level
    so ``check_perf_gate.py`` reruns the identical workload."""
    config = replace(SyntheticConfig(seed=3), waiting_time=Range(25.0, 35.0))
    return generate_synthetic(config.scaled(0.12))  # 600x600


@pytest.fixture(scope="module")
def feasibility_dominated_instance():
    return make_feasibility_instance()


@pytest.fixture(scope="module")
def table5_records():
    """Table V defaults at 0.5 scale (2500 x 2500, ~88k closed dependency
    edges), generated once so the timed body is load alone."""
    instance = generate_synthetic(SyntheticConfig(seed=11).scaled(0.5))
    return tuple(instance.workers), tuple(instance.tasks), instance.skills


def _load_instance(workers, tasks, skills):
    instance = ProblemInstance(list(workers), list(tasks), skills)
    instance.dependency_graph
    return instance


def test_micro_instance_load(benchmark, table5_records):
    """Record validation plus the dependency graph: the set-up every run
    pays before its first batch."""
    instance = benchmark(_load_instance, *table5_records)
    assert len(instance.dependency_graph) == len(table5_records[1])


def test_micro_hungarian_40x60(benchmark):
    rng = random.Random(1)
    cost = [
        [INFEASIBLE if rng.random() < 0.3 else rng.uniform(0, 10) for _ in range(60)]
        for _ in range(40)
    ]
    benchmark(hungarian, cost)


def test_micro_hopcroft_karp_500(benchmark):
    rng = random.Random(2)
    adjacency = {
        i: [j for j in range(500) if rng.random() < 0.02] for i in range(500)
    }
    benchmark(hopcroft_karp, adjacency, 500)


def _standalone_feasibility(instance):
    return BatchContext.standalone(
        instance.workers, instance.tasks, instance, 0.0
    ).checker


def test_micro_feasibility(benchmark, batch_instance):
    """A standalone context's feasible pairs: one full build of a one-shot
    engine plus its batch view."""
    checker = benchmark(_standalone_feasibility, batch_instance)
    assert checker.pair_count() > 0


def test_micro_greedy_single_batch(benchmark, batch_instance):
    greedy = DASCGreedy()
    benchmark(
        greedy.allocate,
        batch_instance.workers,
        batch_instance.tasks,
        batch_instance,
        0.0,
        frozenset(),
    )


def test_micro_game_single_batch(benchmark, batch_instance):
    game = DASCGame(seed=1)
    benchmark(
        game.allocate,
        batch_instance.workers,
        batch_instance.tasks,
        batch_instance,
        0.0,
        frozenset(),
    )


def _platform_report(instance, batch_interval=1.0):
    return Platform(instance, ClosestBaseline(), batch_interval=batch_interval).run()


def _platform_run(instance, batch_interval=1.0):
    return _platform_report(instance, batch_interval).total_score


#: Knobs behind ``feasibility_dominated_instance``, recorded verbatim into
#: the BENCH_engine.json entries so the trajectory is comparable run-to-run.
_FEASIBILITY_CONFIG = {
    "instance": "synthetic seed=3 scale=0.12 waiting_time=25-35",
    "allocator": "Closest",
    "batch_interval": 1.0,
}


def normalised_platform_run(instance):
    """One platform run timed between two host-speed probes.

    Returns ``(report, wall_ms, normalised_ms)``: ``normalised_ms`` is the
    wall time divided by the host slowness perfbench's reference workload
    measured right before and after the run, i.e. the time the run takes
    on the host at slowness 1.0.
    """
    before = reference_s()
    started = time.perf_counter()
    report = _platform_report(instance)
    wall_ms = (time.perf_counter() - started) * 1000.0
    host = slowness(before, reference_s())
    return report, wall_ms, wall_ms / host


def record_platform_entry(record, name, report, wall_ms, normalised_ms):
    """Record a platform run in host-normalised ms, raw wall time beside it."""
    counters = dict(report.engine_stats, raw_wall_ms=round(wall_ms, 3))
    record(name, dict(_FEASIBILITY_CONFIG, wall="host-normalised"), normalised_ms, counters)


def test_micro_platform_engine(
    benchmark, feasibility_dominated_instance, record_bench_json
):
    """Multi-batch simulation on the engine path (incremental feasibility
    over skill buckets).  Feasibility-dominated: a cheap allocator over a small
    batch interval, so per-batch graph construction is the bottleneck."""
    benchmark(_platform_run, feasibility_dominated_instance)
    record_platform_entry(
        record_bench_json,
        "micro_platform_engine",
        *normalised_platform_run(feasibility_dominated_instance),
    )


def test_micro_grid_nearest(benchmark):
    """Ring-walking nearest with the occupied-bounds cutoff."""
    from repro.spatial.index import GridIndex

    rng = random.Random(8)
    index = GridIndex(cell_size=0.05)
    index.insert_many(
        (i, (rng.uniform(0, 1), rng.uniform(0, 1))) for i in range(2000)
    )
    # Mix of interior centers (short walks) and far-out ones (bounds cutoff).
    centers = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(80)]
    centers += [(rng.uniform(3, 5), rng.uniform(3, 5)) for _ in range(20)]

    def nearest_all():
        found = 0
        for center in centers:
            if index.nearest(center) is not None:
                found += 1
        return found

    benchmark(nearest_all)
