"""Task-set staffing tests."""

from dataclasses import replace

import pytest

from repro.matching.bipartite import (
    MatchMemo,
    _WARM,
    match_task_set,
    max_bipartite_matching,
)

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


class TestMatchMemo:
    @pytest.fixture
    def checker(self, example1):
        return ExhaustiveChecker(example1.workers, example1.tasks)

    def test_replay_returns_identical_staffing(self, checker, example1):
        memo = MatchMemo()
        cold = match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo)
        before = _WARM.value
        warm = match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo)
        assert warm == cold
        assert _WARM.value == before + 1

    def test_replay_returns_copies_not_aliases(self, checker, example1):
        memo = MatchMemo()
        match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo)
        first = match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo)
        second = match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo)
        assert first == second and first is not second
        first[1] = 999  # mutating a replay must not poison the memo
        assert match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo) == second

    def test_infeasible_result_is_memoised_too(self, checker, example1):
        memo = MatchMemo()
        assert match_task_set([1, 2, 3], {1, 2, 3}, checker, example1, memo=memo) is None
        before = _WARM.value
        assert match_task_set([1, 2, 3], {1, 2, 3}, checker, example1, memo=memo) is None
        assert _WARM.value == before + 1

    def test_changed_free_pool_forces_a_fresh_solve(self, checker, example1):
        memo = MatchMemo()
        assert match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo) is not None
        before = _WARM.value
        # Same task set, but the candidate rows differ -> fingerprint miss.
        assert match_task_set([1, 2], {1, 2}, checker, example1, memo=memo) is None
        assert _WARM.value == before

    def test_method_is_part_of_the_key(self, checker, example1):
        memo = MatchMemo()
        match_task_set([1, 2], {1, 2, 3}, checker, example1, method="hungarian", memo=memo)
        before = _WARM.value
        match_task_set(
            [1, 2], {1, 2, 3}, checker, example1, method="hopcroft-karp", memo=memo
        )
        assert _WARM.value == before
        assert len(memo) == 2

    def test_bind_to_new_instance_clears_entries(self, checker, example1):
        memo = MatchMemo()
        match_task_set([1, 2], {1, 2, 3}, checker, example1, memo=memo)
        assert len(memo) == 1
        memo.bind(example1)  # same instance: entries survive
        assert len(memo) == 1
        other = replace(example1)
        memo.bind(other)
        assert len(memo) == 0


class TestBoundedMatchMemo:
    @pytest.fixture
    def checker(self, example1):
        return ExhaustiveChecker(example1.workers, example1.tasks)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="maxsize must be positive"):
            MatchMemo(maxsize=0)
        with pytest.raises(ValueError, match="policy must be"):
            MatchMemo(policy="random")

    def test_fifo_evicts_oldest_entry(self, checker, example1):
        memo = MatchMemo(maxsize=2)
        queries = ([1], [2], [3])  # three distinct keys
        for tasks in queries:
            match_task_set(tasks, {1, 2, 3}, checker, example1, memo=memo)
        assert len(memo) == 2
        assert memo.evictions == 1
        # The oldest key ([1]) is gone: re-asking solves cold (no replay).
        before = _WARM.value
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)
        assert _WARM.value == before

    def test_lru_replay_refreshes_entry(self, checker, example1):
        memo = MatchMemo(maxsize=2, policy="lru")
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)
        match_task_set([2], {1, 2, 3}, checker, example1, memo=memo)
        # Replay [1] so [2] becomes the least recently used...
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)
        match_task_set([3], {1, 2, 3}, checker, example1, memo=memo)  # evicts [2]
        before = _WARM.value
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)
        assert _WARM.value == before + 1  # [1] survived
        match_task_set([2], {1, 2, 3}, checker, example1, memo=memo)
        assert _WARM.value == before + 1  # [2] did not

    def test_fifo_does_not_refresh_on_replay(self, checker, example1):
        memo = MatchMemo(maxsize=2, policy="fifo")
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)
        match_task_set([2], {1, 2, 3}, checker, example1, memo=memo)
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)  # replay
        match_task_set([3], {1, 2, 3}, checker, example1, memo=memo)
        # FIFO ignores the replay: [1] was inserted first, so [1] is evicted.
        before = _WARM.value
        match_task_set([2], {1, 2, 3}, checker, example1, memo=memo)
        assert _WARM.value == before + 1
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)
        assert _WARM.value == before + 1

    def test_bounded_results_identical_to_unbounded(self, checker, example1):
        bounded = MatchMemo(maxsize=1)
        unbounded = MatchMemo()
        for tasks in ([1], [2], [1, 2], [1], [2]):
            a = match_task_set(tasks, {1, 2, 3}, checker, example1, memo=bounded)
            b = match_task_set(tasks, {1, 2, 3}, checker, example1, memo=unbounded)
            assert a == b

    def test_aux_stats(self, checker, example1):
        memo = MatchMemo(maxsize=1)
        match_task_set([1], {1, 2, 3}, checker, example1, memo=memo)
        assert memo.aux_stats() == {
            "match_memo_entries": 1.0,
            "match_memo_evictions": 0.0,
        }
        match_task_set([2], {1, 2, 3}, checker, example1, memo=memo)
        assert memo.aux_stats() == {
            "match_memo_entries": 1.0,
            "match_memo_evictions": 1.0,
        }
