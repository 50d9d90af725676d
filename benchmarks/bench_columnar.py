"""Columnar feasibility core: wall-clock and per-pair counter benchmarks.

Runs the feasibility-dominated platform workload on the columnar path and,
for the "off" side, on the same instance under :class:`ScalarEuclidean` (a
Euclidean metric with no kernel code, so every build stays scalar).  It
asserts the two runs are bit-identical (the exactness contract of
:mod:`repro.columnar`), records both measurements into ``BENCH_engine.json``
and pins the headline win: the columnar path performs at least
``MIN_PAIR_RATIO`` times fewer interpreter-level per-pair feasibility
evaluations.  ``check_perf_gate.py`` reruns the identical workload as a CI
gate.
"""

import time
from dataclasses import replace

import pytest

from bench_micro_substrates import make_feasibility_instance
from repro.algorithms.baselines import ClosestBaseline
from repro.columnar import numpy_available
from repro.simulation.platform import Platform
from repro.spatial.distance import EuclideanDistance

#: Interpreter-level per-pair evaluation ratio the columnar path must beat.
MIN_PAIR_RATIO = 5.0

#: A coarse batch interval keeps the worker/task pools large per batch, so
#: full feasibility builds (the regime the columnar kernels vectorise)
#: dominate over incremental row maintenance.
COLUMNAR_CONFIG = {
    "instance": "synthetic seed=3 scale=0.12 waiting_time=25-35",
    "allocator": "Closest",
    "batch_interval": 50.0,
}

AUX = ("columnar_full_builds", "columnar_pairs", "scalar_pair_evals")


@pytest.fixture(scope="module")
def columnar_instance():
    return make_feasibility_instance()


class ScalarEuclidean(EuclideanDistance):
    """Euclidean distance that never selects the columnar kernels."""

    columnar_code = None


def run_columnar_workload(instance, use_columnar):
    """One measured platform run; returns (report, aux counters, wall_ms).

    ``use_columnar=False`` runs the instance under :class:`ScalarEuclidean`.
    """
    if not use_columnar:
        instance = replace(instance, metric=ScalarEuclidean())
    platform = Platform(
        instance,
        ClosestBaseline(),
        batch_interval=COLUMNAR_CONFIG["batch_interval"],
    )
    started = time.perf_counter()
    report = platform.run()
    wall_ms = (time.perf_counter() - started) * 1000.0
    registry = platform.metrics_registry
    aux = {key: registry.counter(f"engine_{key}").value for key in AUX}
    return report, aux, wall_ms


def _assert_reports_identical(on_report, off_report):
    assert on_report.assignments == off_report.assignments
    assert on_report.completion_times == off_report.completion_times
    assert on_report.expired_tasks == off_report.expired_tasks
    assert on_report.engine_stats == off_report.engine_stats


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_bench_columnar_platform(benchmark, columnar_instance, record_bench_json):
    """Columnar on vs off on the same multi-batch simulation.

    The benchmark times the columnar run; both modes are recorded into the
    perf trajectory so the wall-clock and counter gap is diffable across
    commits.
    """
    benchmark(
        lambda: run_columnar_workload(columnar_instance, True)[0].total_score
    )
    on_report, on_aux, on_ms = run_columnar_workload(columnar_instance, True)
    off_report, off_aux, off_ms = run_columnar_workload(columnar_instance, False)

    # Exactness precondition: the counter win must not come from divergence.
    _assert_reports_identical(on_report, off_report)

    record_bench_json(
        "columnar_platform_on",
        dict(COLUMNAR_CONFIG, use_columnar=True),
        on_ms,
        dict(on_report.engine_stats, **on_aux),
    )
    record_bench_json(
        "columnar_platform_off",
        dict(COLUMNAR_CONFIG, use_columnar=False),
        off_ms,
        dict(off_report.engine_stats, **off_aux),
    )

    ratio = off_aux["scalar_pair_evals"] / max(on_aux["scalar_pair_evals"], 1)
    assert on_aux["columnar_full_builds"] >= 1
    assert on_aux["columnar_pairs"] > 0, "degenerate workload: no columnar pairs"
    assert ratio >= MIN_PAIR_RATIO, (
        f"columnar pair-eval ratio {ratio:.2f} < {MIN_PAIR_RATIO} "
        f"(off={off_aux['scalar_pair_evals']}, on={on_aux['scalar_pair_evals']})"
    )
