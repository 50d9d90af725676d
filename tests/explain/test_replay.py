"""Replay acceptance: the journal reconstructs every approach's report.

The flight recorder's completeness contract: for every approach, on the
synthetic population and on the contested workloads of
``tests.workloads``, replaying the events JSONL yields a
``SimulationReport`` bit-identical to the one the platform returned (minus
wall-clock ``elapsed`` and ``engine_stats``, which are measurements rather
than allocation facts).
"""

import pytest

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.explain import replay_report, split_runs, strip_header, validate_replay
from repro.obs.events import EVENTS_SCHEMA, EventJournal, events_records
from repro.simulation.platform import Platform
from tests.reference import without_engine
from tests.workloads import WORKLOADS


@pytest.fixture(scope="module")
def instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))


def _record(instance, name):
    journal = EventJournal()
    report = Platform(
        instance,
        make_allocator(name, seed=11),
        batch_interval=5.0,
        journal=journal,
    ).run()
    return events_records(journal), report


def _check_replays(records, report):
    replayed = validate_replay(records, report)  # raises on any divergence
    assert replayed.total_score == report.total_score
    assert all(b.elapsed == 0.0 for b in replayed.batches)
    assert replayed.engine_stats == {}


class TestReplayBitIdentity:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_replays(self, instance, name):
        _check_replays(*_record(instance, name))

    @pytest.mark.parametrize("name", APPROACH_NAMES)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_approach_replays_contested(self, workload, name):
        _check_replays(*_record(WORKLOADS[workload](), name))

    def test_legacy_path_replays(self, instance):
        with without_engine():
            records, report = _record(instance, "Greedy")
        validate_replay(records, report)

    def test_header_is_tolerated(self, instance):
        records, report = _record(instance, "Closest")
        with_header = [{"type": "header", "schema": EVENTS_SCHEMA}] + records
        validate_replay(with_header, report)
        assert strip_header(with_header) == records


class TestReplayDiagnostics:
    def test_divergence_is_reported(self, instance):
        records, report = _record(instance, "Closest")
        report.assignments[next(iter(report.assignments), 0)] = -1
        if not report.assignments:
            pytest.skip("no assignments on this instance")
        with pytest.raises(ValueError, match="assignments"):
            validate_replay(records, report)

    def test_tampered_close_is_rejected(self, instance):
        records, _ = _record(instance, "Closest")
        tampered = [dict(r) for r in records]
        tampered[-1]["score"] = tampered[-1]["score"] + 1
        with pytest.raises(ValueError, match="run_close disagrees"):
            replay_report(tampered)

    def test_preamble_events_are_skipped(self, instance):
        # A standalone single-batch solve journals events with no enclosing
        # run; split_runs skips them rather than mis-attributing them.
        records, report = _record(instance, "Closest")
        preamble = [{"type": "task_expire", "t": 0.0, "task": 1, "seq": 0}]
        runs = split_runs(preamble + records)
        assert len(runs) == 1
        validate_replay(preamble + records, report)

    def test_run_index_bounds(self, instance):
        records, _ = _record(instance, "Closest")
        with pytest.raises(ValueError, match="out of range"):
            replay_report(records, run=5)


class TestMultiRunFiles:
    def test_concatenated_runs_split_and_replay(self, instance):
        journal = EventJournal()
        reports = []
        for name in ("Closest", "Random"):
            reports.append(
                Platform(
                    instance,
                    make_allocator(name, seed=11),
                    batch_interval=5.0,
                    journal=journal,
                ).run()
            )
        records = events_records(journal)
        runs = split_runs(records)
        assert len(runs) == 2
        for index, report in enumerate(reports):
            validate_replay(records, report, run=index)
