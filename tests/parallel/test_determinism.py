"""Acceptance: parallel execution is bit-identical to serial.

The whole parallel layer rests on one promise — ``n_jobs`` changes the
wall-clock and nothing else.  These tests pin it at every level: the
approach fan-out, the sweep-grid fan-out (same ``SweepResult``), and the
merged metrics registries.  The shard engine's phase-1 pool is
pinned in ``tests/shard/test_partitioned.py``.
"""

import pytest

from repro.algorithms.registry import APPROACH_NAMES
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.experiments.harness import evaluate_approaches, run_sweep
from repro.obs.export import metrics_records
from repro.obs.metrics import MetricsRegistry
from repro.parallel.sweep import sweep_cells


def _instance(seed, scale=0.12):
    return generate_synthetic(SyntheticConfig(seed=seed).scaled(scale))


def _make(value):
    return _instance(int(value))


def _points(sweep):
    return [(p.label, p.approach, p.score) for p in sweep.points]


class TestApproachFanout:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_scores_and_order_identical(self, n_jobs):
        instance = _instance(7)
        serial = evaluate_approaches(instance, APPROACH_NAMES, seed=9)
        parallel = evaluate_approaches(instance, APPROACH_NAMES, seed=9, n_jobs=n_jobs)
        assert list(parallel) == list(serial)  # dict order == approach order
        assert {k: v[0] for k, v in parallel.items()} == {
            k: v[0] for k, v in serial.items()
        }

    def test_single_batch_fanout(self):
        instance = _instance(4, scale=0.08)
        serial = evaluate_approaches(instance, APPROACH_NAMES, seed=2, single_batch=True)
        parallel = evaluate_approaches(
            instance, APPROACH_NAMES, seed=2, single_batch=True, n_jobs=2
        )
        assert {k: v[0] for k, v in parallel.items()} == {
            k: v[0] for k, v in serial.items()
        }


class TestSweepFanout:
    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_sweep_results_identical(self, n_jobs):
        serial = run_sweep("det", "seed", [1, 2], _make, APPROACH_NAMES, seed=5)
        parallel = run_sweep(
            "det", "seed", [1, 2], _make, APPROACH_NAMES, seed=5, n_jobs=n_jobs
        )
        assert _points(parallel) == _points(serial)
        assert parallel.labels == serial.labels
        assert parallel.approaches == serial.approaches
        for approach in APPROACH_NAMES:
            assert parallel.scores_of(approach) == serial.scores_of(approach)
            assert len(parallel.times_of(approach)) == len(serial.times_of(approach))

    def test_repetition_zero_reproduces_run_sweep(self):
        reps = sweep_cells(
            "det", "seed", [1, 2], _make, ["Greedy", "Random"],
            base_seed=5, repetitions=2, n_jobs=2,
        )
        assert len(reps) == 2
        baseline = run_sweep("det", "seed", [1, 2], _make, ["Greedy", "Random"], seed=5)
        assert _points(reps[0]) == _points(baseline)
        # Later repetitions use derived seeds: same labels, same shape.
        assert reps[1].labels == reps[0].labels
        assert reps[1].approaches == reps[0].approaches

    def test_merged_metrics_identical(self):
        serial_registry = MetricsRegistry()
        parallel_registry = MetricsRegistry()
        run_sweep(
            "det", "seed", [1], _make, ["Greedy", "Closest"],
            seed=5, metrics=serial_registry,
        )
        run_sweep(
            "det", "seed", [1], _make, ["Greedy", "Closest"],
            seed=5, n_jobs=2, metrics=parallel_registry,
        )

        def rounded(registry):
            # Histogram sums are wall-clock timings and differ run to run;
            # everything structural (names, kinds, labels, counter values)
            # must match exactly.
            out = []
            for record in metrics_records(registry):
                record = dict(record)
                if record["type"] == "histogram":
                    record["sum"] = None
                    record["buckets"] = None
                out.append((record["name"], record["type"], record.get("value")))
            return sorted(out, key=lambda r: (r[0], str(r)))

        serial = rounded(serial_registry)
        parallel = rounded(parallel_registry)
        assert [r[:2] for r in parallel] == [r[:2] for r in serial]
        # Engine counters are deterministic and must agree exactly.
        for (name_s, _, value_s), (name_p, _, value_p) in zip(serial, parallel):
            if name_s.startswith("engine_") and "cache_size" not in name_s:
                assert (name_p, value_p) == (name_s, value_s)


class TestAggregateFanout:
    def test_repeated_sweep_identical(self):
        from repro.experiments.aggregate import run_repeated_sweep
        from repro.experiments.runner import run_table6

        serial = run_repeated_sweep(run_table6, [1, 2], scale=0.4)
        parallel = run_repeated_sweep(run_table6, [1, 2], n_jobs=2, scale=0.4)
        assert serial.labels == parallel.labels
        assert serial.approaches == parallel.approaches
        for label in serial.labels:
            for approach in serial.approaches:
                assert (
                    serial.point(label, approach).mean_score
                    == parallel.point(label, approach).mean_score
                )
