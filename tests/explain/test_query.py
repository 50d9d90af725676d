"""ExplainIndex queries: why_not, why_assigned, funnels, summaries."""

import pytest

from repro.algorithms.registry import make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.explain import ExplainIndex, run_report_html, run_report_text
from repro.obs.events import EventJournal, events_records
from repro.simulation.platform import Platform


@pytest.fixture(scope="module")
def instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))


@pytest.fixture(scope="module")
def recorded(instance):
    journal = EventJournal()
    report = Platform(
        instance, make_allocator("Game", seed=11), batch_interval=5.0, journal=journal
    ).run()
    return events_records(journal), report


@pytest.fixture(scope="module")
def index(recorded):
    return ExplainIndex(recorded[0])


class TestWhyNot:
    def test_assigned_pair_reports_assignment(self, recorded, index):
        _, report = recorded
        task, worker = next(iter(report.assignments.items()))
        answer = index.why_not(worker, task)
        assert "WAS assigned" in answer["verdict"]
        assert answer["events"][0]["type"] == "assign"

    def test_rejected_pair_names_the_constraint(self, recorded, index):
        records, _ = recorded
        reject = next(
            e for e in records if e["type"] == "reject" and e["phase"] == "build"
        )
        answer = index.why_not(reject["worker"], reject["task"])
        assert reject["reason"] in answer["verdict"]
        assert answer["reasons"].get(reject["reason"], 0) >= 1
        assert any(e["type"] == "reject" for e in answer["events"])

    def test_unknown_pair_falls_back(self, index):
        answer = index.why_not(10**6, 10**6)
        assert "no per-pair record" in answer["verdict"]
        assert answer["events"] == []

    def test_contention_loser_sees_withdrawal(self, recorded, index):
        records, _ = recorded
        withdraw = next(
            (e for e in records if e["type"] == "game_withdraw"), None
        )
        if withdraw is None:
            pytest.skip("no contention on this instance")
        answer = index.why_not(withdraw["worker"], withdraw["task"])
        assert "withdrew in the game" in answer["verdict"]


class TestWhyAssigned:
    def test_assigned_task_explains_commit(self, recorded, index):
        _, report = recorded
        task = next(iter(report.assignments))
        answer = index.why_assigned(task)
        assert f"task {task} was assigned to worker" in answer["verdict"]
        assert any(e["type"] == "assign" for e in answer["events"])

    def test_expired_task_explains_expiry(self, recorded, index):
        _, report = recorded
        if not report.expired_tasks:
            pytest.skip("nothing expired")
        answer = index.why_assigned(report.expired_tasks[0])
        assert "expired" in answer["verdict"]

    def test_completion_time_is_reported(self, recorded, index):
        _, report = recorded
        task = next(iter(report.completion_times))
        answer = index.why_assigned(task)
        assert "completed at" in answer["verdict"]


class TestFunnel:
    def test_full_build_conservation(self, recorded, index):
        """pairs == fresh rejects + links surviving to the allocator."""
        records, _ = recorded
        full_builds = [
            e for e in records if e["type"] == "feas_build" and e["mode"] == "full"
        ]
        assert full_builds
        for build in full_builds:
            batch = build["batch"]
            view = next(
                e
                for e in records
                if e["type"] == "feas_view" and e.get("batch") == batch
            )
            fresh = sum(
                1
                for e in records
                if e["type"] == "reject"
                and e.get("batch") == batch
                and e["phase"] == "build"
            )
            assert build["pairs"] == fresh + view["links"]

    def test_funnel_totals_match_events(self, recorded, index):
        records, report = recorded
        whole_run = index.funnel()
        assert whole_run["matched"] == len(report.assignments)
        total_rejects = sum(1 for e in records if e["type"] == "reject")
        reason_sum = (
            whole_run["skill"] + whole_run["reach"] + whole_run["deadline"]
            + whole_run["dependency"] + whole_run["stale_deadline"]
        )
        assert reason_sum == total_rejects

    def test_empty_batch_funnel_is_zero(self, index):
        quiet = [
            b for b in index.batches() if index.funnel(b)["pairs"] == 0
        ]
        for batch in quiet:
            funnel = index.funnel(batch)
            assert funnel["skill"] == funnel["reach"] == funnel["deadline"] == 0


class TestSummaryAndReport:
    def test_summary_shape(self, recorded, index):
        _, report = recorded
        summary = index.summary()
        assert summary["allocator"] == report.allocator
        assert summary["close"]["score"] == report.total_score
        assert summary["events"]["batch_open"] == report.num_batches

    def test_text_report_renders(self, recorded):
        records, report = recorded
        text = run_report_text(records)
        assert f"Run: {report.allocator}" in text
        assert "Batches" in text and "Rejections by reason" in text
        assert str(report.total_score) in text

    def test_html_report_renders(self, recorded):
        records, _ = recorded
        page = run_report_html(records)
        assert page.startswith("<!DOCTYPE html>")
        assert "<table>" in page and "Rejections by reason" in page

    def test_reports_join_trace_and_metrics(self, recorded):
        records, _ = recorded
        trace = [
            {"type": "header", "schema": "repro.obs/trace/v1"},
            {"type": "span", "id": 1, "parent": None, "name": "platform.batch",
             "start_s": 0.0, "duration_ms": 2.0},
        ]
        metrics = [
            {"type": "header", "schema": "repro.obs/metrics/v1"},
            {"type": "counter", "name": "engine_pairs_checked", "labels": {},
             "value": 42.0},
        ]
        text = run_report_text(records, trace, metrics)
        assert "Hottest spans" in text and "platform.batch" in text
        assert "Metrics" in text and "engine_pairs_checked" in text
