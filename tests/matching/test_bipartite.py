"""Task-set staffing tests."""

import pytest

from repro.matching.bipartite import match_task_set, max_bipartite_matching

from tests.reference import ExhaustiveChecker


class TestMaxBipartiteMatching:
    def test_ids_preserved(self):
        matching = max_bipartite_matching([10, 20], {10: [7], 20: [7, 8]})
        assert matching == {10: 7, 20: 8}

    def test_partial_matching(self):
        matching = max_bipartite_matching([1, 2], {1: [5], 2: [5]})
        assert len(matching) == 1


class TestMatchTaskSet:
    @pytest.fixture
    def checker(self, example1):
        return ExhaustiveChecker(example1.workers, example1.tasks)

    def test_empty_set_staffs_trivially(self, checker, example1):
        assert match_task_set([], {1, 2, 3}, checker, example1) == {}

    def test_example1_largest_set_cannot_be_staffed(self, checker, example1):
        # {t1, t2, t3} needs psi-1, psi-2, psi-3 on three distinct workers;
        # only w1 and w3 qualify for any of them.
        assert match_task_set([1, 2, 3], {1, 2, 3}, checker, example1) is None

    def test_example1_pair_set_staffed(self, checker, example1):
        staffing = match_task_set([1, 2], {1, 2, 3}, checker, example1)
        assert staffing is not None
        assert set(staffing) == {1, 2}
        assert set(staffing.values()) <= {1, 3}
        assert staffing[1] != staffing[2]

    def test_respects_free_worker_pool(self, checker, example1):
        # with w3 unavailable, {t1, t2} can still be staffed? w1 alone cannot
        # cover two tasks.
        assert match_task_set([1, 2], {1, 2}, checker, example1) is None

    def test_task_with_no_candidates_fails_fast(self, checker, example1):
        # t3 needs psi-3 which only w3 has.
        assert match_task_set([3], {1, 2}, checker, example1) is None

    def test_hopcroft_karp_agrees_on_feasibility(self, checker, example1):
        for tasks in ([1], [1, 2], [1, 2, 3], [4], [4, 5]):
            hungarian_result = match_task_set(
                tasks, {1, 2, 3}, checker, example1, method="hungarian"
            )
            hk_result = match_task_set(
                tasks, {1, 2, 3}, checker, example1, method="hopcroft-karp"
            )
            assert (hungarian_result is None) == (hk_result is None)

    def test_hungarian_minimises_travel(self, checker, example1):
        # Both w1 and w3 can do t1 (psi-1); w3 at (5,3) is closer to t1 at
        # (4,1) than... dist(w1,t1)=2.0, dist(w3,t1)=sqrt(5)~2.24 -> w1 wins.
        staffing = match_task_set([1], {1, 3}, checker, example1)
        assert staffing == {1: 1}

    def test_unknown_method_rejected(self, checker, example1):
        with pytest.raises(ValueError, match="unknown matching method"):
            match_task_set([1], {1}, checker, example1, method="magic")
