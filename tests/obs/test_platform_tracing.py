"""Tracing-equivalence acceptance: profiling must never change a report.

``--profile`` style instrumentation records wall-clock timings only; the
``SimulationReport`` — assignments, completion times, per-batch scores and
the ``engine_stats`` keys *and values* — must be bit-identical with tracing
on or off, on both the engine path and the rebuild reference.
"""

import contextlib

import pytest

from repro.algorithms.registry import make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.simulation.platform import Platform
from tests.reference import without_engine


def _run(instance, name, *, tracer=None, use_engine=True, metrics=None):
    with contextlib.nullcontext() if use_engine else without_engine():
        return Platform(
            instance,
            make_allocator(name, seed=11),
            batch_interval=5.0,
            tracer=tracer,
            metrics=metrics,
        ).run()


@pytest.fixture(scope="module")
def instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))


class TestReportsBitIdentical:
    @pytest.mark.parametrize("name", ["Greedy", "Game-5%", "Closest"])
    def test_traced_equals_untraced_engine_path(self, instance, name):
        traced = _run(instance, name, tracer=Tracer())
        plain = _run(instance, name)
        assert traced.assignments == plain.assignments
        assert traced.completion_times == plain.completion_times
        assert traced.expired_tasks == plain.expired_tasks
        assert [b.score for b in traced.batches] == [b.score for b in plain.batches]
        assert traced.engine_stats == plain.engine_stats
        assert list(traced.engine_stats) == list(plain.engine_stats)  # key order too

    def test_traced_equals_untraced_legacy_path(self, instance):
        traced = _run(instance, "Greedy", tracer=Tracer(), use_engine=False)
        plain = _run(instance, "Greedy", use_engine=False)
        assert traced.assignments == plain.assignments
        assert traced.engine_stats == plain.engine_stats == {}

    def test_metrics_registry_does_not_change_report(self, instance):
        with_metrics = _run(instance, "Greedy", metrics=MetricsRegistry())
        plain = _run(instance, "Greedy")
        assert with_metrics.assignments == plain.assignments
        assert with_metrics.engine_stats == plain.engine_stats


class TestSpansRecorded:
    def test_phase_spans_present(self, instance):
        tracer = Tracer()
        _run(instance, "Greedy", tracer=tracer)
        names = {span.name for span in tracer.finished}
        assert {
            "platform.batch",
            "platform.snapshot",
            "platform.feasibility",
            "platform.match",
            "platform.commit",
            "alloc.Greedy",
            "engine.full_build",
        } <= names
        assert "engine.incremental_update" in names

    def test_batch_phases_nest_under_batch_span(self, instance):
        tracer = Tracer()
        _run(instance, "Greedy", tracer=tracer)
        by_id = {span.span_id: span for span in tracer.finished}
        for span in tracer.finished:
            if span.name in ("platform.snapshot", "platform.match", "platform.commit"):
                assert by_id[span.parent_id].name == "platform.batch"
            if span.name == "alloc.Greedy":
                assert by_id[span.parent_id].name == "platform.match"

    def test_view_is_built_outside_the_allocator(self, instance):
        # The batch view is engine work: one engine.view span per engine
        # batch, under platform.feasibility, none inside alloc.* spans.
        tracer = Tracer()
        report = _run(instance, "Greedy", tracer=tracer)
        by_id = {span.span_id: span for span in tracer.finished}
        views = [s for s in tracer.finished if s.name == "engine.view"]
        allocs = [s for s in tracer.finished if s.name == "alloc.Greedy"]
        assert len(views) == len(allocs) == sum(
            1 for b in report.batches if b.available_workers and b.open_tasks
        )
        for span in views:
            assert by_id[span.parent_id].name == "platform.feasibility"

    def test_batch_span_attrs(self, instance):
        tracer = Tracer()
        report = _run(instance, "Greedy", tracer=tracer)
        batch_spans = [s for s in tracer.finished if s.name == "platform.batch"]
        assert len(batch_spans) == report.num_batches
        assert [s.attrs["score"] for s in batch_spans] == [
            b.score for b in report.batches
        ]

    def test_engine_spans_carry_path_stamps(self, instance):
        # Each engine span says which path ran and how many pairs it
        # decided, with the values of the matching feas_build event.
        tracer, journal = Tracer(), EventJournal()
        platform = Platform(
            instance,
            make_allocator("Greedy", seed=11),
            batch_interval=5.0,
            tracer=tracer,
            journal=journal,
        )
        report = platform.run()
        spans = [
            span
            for span in tracer.finished
            if span.name in ("engine.full_build", "engine.incremental_update")
        ]
        builds = journal.of_type("feas_build")
        assert len(spans) == len(builds) > 1
        for span, build in zip(spans, builds):
            assert span.name == "engine." + (
                "full_build" if build["mode"] == "full" else "incremental_update"
            )
            assert span.attrs["columnar"] is build["columnar"]
            assert span.attrs["pairs"] == build["pairs"]
        assert [s.attrs["columnar"] for s in spans] == [
            platform.last_engine.columnar_active
        ] + [False] * (len(spans) - 1)
        assert sum(s.attrs["pairs"] for s in spans) == (
            report.engine_stats["engine_pairs_checked"]
            + report.engine_stats["engine_pruned_by_index"]
        )

    def test_untraced_run_records_nothing(self, instance):
        tracer = Tracer(enabled=False)
        _run(instance, "Greedy", tracer=tracer)
        assert tracer.finished == []


class TestEngineMetrics:
    def test_engine_counters_in_shared_registry(self, instance):
        registry = MetricsRegistry()
        report = _run(instance, "Greedy", metrics=registry)
        snapshot = registry.as_dict()
        for key, value in report.engine_stats.items():
            assert snapshot[key] == value
        assert "platform_batch_seconds_count" in snapshot

    def test_private_registry_exposed_after_run(self, instance):
        platform = Platform(instance, make_allocator("Greedy", seed=11))
        assert platform.metrics_registry is None
        platform.run()
        assert platform.metrics_registry is not None
        assert "engine_pairs_checked" in platform.metrics_registry.as_dict()
