"""Acceptance: the engine path reproduces the rebuild reference bit for bit.

``Platform.run()`` must produce exactly the same ``SimulationReport`` —
assignments, completion times, per-batch scores — as the reference that
builds a fresh exhaustive oracle per batch
(:class:`~tests.reference.RebuildEngine`), for every approach and every
rejoin policy.  Feasibility rows are canonically sorted on both paths and
every distance is the metric's own value, so even tie-breaking and
RNG-driven choices coincide.
"""

import contextlib

import pytest

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.simulation.platform import Platform, RejoinPolicy
from tests.reference import without_engine


def _run(instance, name, rejoin, use_engine, batch_interval=5.0):
    with contextlib.nullcontext() if use_engine else without_engine():
        platform = Platform(
            instance,
            make_allocator(name, seed=11),
            batch_interval=batch_interval,
            rejoin=rejoin,
        )
        return platform.run()


def _assert_reports_identical(engine_report, legacy_report):
    assert engine_report.assignments == legacy_report.assignments
    assert engine_report.completion_times == legacy_report.completion_times
    assert engine_report.expired_tasks == legacy_report.expired_tasks
    assert [b.score for b in engine_report.batches] == [
        b.score for b in legacy_report.batches
    ]
    assert [b.time for b in engine_report.batches] == [
        b.time for b in legacy_report.batches
    ]


class TestEngineLegacyEquivalence:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_default_synthetic_config(self, name):
        instance = generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))
        engine_report = _run(instance, name, RejoinPolicy.REMAINING, True)
        legacy_report = _run(instance, name, RejoinPolicy.REMAINING, False)
        _assert_reports_identical(engine_report, legacy_report)

    @pytest.mark.parametrize("rejoin", list(RejoinPolicy))
    def test_every_rejoin_policy(self, rejoin):
        instance = generate_synthetic(SyntheticConfig(seed=13).scaled(0.04))
        engine_report = _run(instance, "Greedy", rejoin, True)
        legacy_report = _run(instance, "Greedy", rejoin, False)
        _assert_reports_identical(engine_report, legacy_report)

    @pytest.mark.parametrize("rejoin", list(RejoinPolicy))
    def test_stochastic_allocator_every_rejoin_policy(self, rejoin):
        """Random tie-breaks see identical option orderings on both paths."""
        instance = generate_synthetic(SyntheticConfig(seed=21).scaled(0.04))
        engine_report = _run(instance, "Game-5%", rejoin, True)
        legacy_report = _run(instance, "Game-5%", rejoin, False)
        _assert_reports_identical(engine_report, legacy_report)

    def test_small_batch_interval_many_batches(self, medium_synthetic):
        engine_report = _run(
            medium_synthetic, "Closest", RejoinPolicy.REMAINING, True, 2.0
        )
        legacy_report = _run(
            medium_synthetic, "Closest", RejoinPolicy.REMAINING, False, 2.0
        )
        _assert_reports_identical(engine_report, legacy_report)

    def test_engine_stats_only_on_engine_path(self, small_synthetic):
        engine_report = _run(small_synthetic, "Greedy", RejoinPolicy.REMAINING, True)
        legacy_report = _run(small_synthetic, "Greedy", RejoinPolicy.REMAINING, False)
        assert engine_report.engine_stats
        assert engine_report.engine_stats["engine_full_builds"] == 1.0
        assert legacy_report.engine_stats == {}
