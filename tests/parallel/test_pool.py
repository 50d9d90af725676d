"""Pool lifecycle and ordered fan-out semantics."""

import pytest

from repro.parallel.pool import (
    available_cpus,
    get_executor,
    ordered_map,
    resolve_jobs,
    shutdown_executors,
)


def _square(x):
    return x * x


class TestResolveJobs:
    def test_serial_spellings(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1

    def test_positive_passes_through(self):
        assert resolve_jobs(4) == 4

    def test_negative_means_all_cpus(self):
        assert resolve_jobs(-1) == available_cpus()
        assert resolve_jobs(-8) == available_cpus()

    def test_available_cpus_is_positive(self):
        assert available_cpus() >= 1


class TestOrderedMap:
    def test_serial_path(self):
        assert ordered_map(_square, [3, 1, 2], 1) == [9, 1, 4]

    def test_empty(self):
        assert ordered_map(_square, [], 4) == []

    def test_single_job_stays_serial(self):
        # One job never pays the pool round-trip.
        assert ordered_map(_square, [5], 4) == [25]

    def test_parallel_preserves_input_order(self):
        jobs = list(range(40))
        assert ordered_map(_square, jobs, 2) == [_square(j) for j in jobs]

    def test_parallel_equals_serial(self):
        jobs = list(range(17))
        assert ordered_map(_square, jobs, 3) == ordered_map(_square, jobs, 1)


class TestExecutors:
    def test_rejects_single_worker(self):
        with pytest.raises(ValueError):
            get_executor(1)

    def test_cached_by_worker_count(self):
        try:
            assert get_executor(2) is get_executor(2)
        finally:
            shutdown_executors()

    def test_shutdown_clears_cache(self):
        first = get_executor(2)
        assert shutdown_executors() >= 1
        try:
            assert get_executor(2) is not first
        finally:
            shutdown_executors()
