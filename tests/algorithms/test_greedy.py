"""DASC_Greedy tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import DASCGreedy
from repro.core.constraints import FeasibilityChecker
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext
from repro.obs.events import EventJournal
from repro.simulation.platform import run_single_batch


class TestExample1:
    def test_achieves_dependency_aware_optimum(self, example1):
        outcome = run_single_batch(example1, DASCGreedy())
        assert outcome.score == 3
        assert outcome.assignment.is_valid(example1, now=example1.earliest_start)

    def test_assignment_shape_matches_figure_1c(self, example1):
        outcome = run_single_batch(example1, DASCGreedy())
        tasks = outcome.assignment.assigned_tasks()
        # Figure 1(c): {t1, t2} staffed by {w1, w3}, t4 by w2.
        assert tasks == {1, 2, 4}
        assert outcome.assignment.worker_of(4) == 2

    def test_hopcroft_karp_variant_same_score(self, example1):
        outcome = run_single_batch(example1, DASCGreedy(matching="hopcroft-karp"))
        assert outcome.score == 3


class TestEdgeCases:
    def test_empty_workers(self, example1):
        outcome = DASCGreedy().allocate([], example1.tasks, example1, 0.0, frozenset())
        assert outcome.score == 0

    def test_empty_tasks(self, example1):
        outcome = DASCGreedy().allocate(example1.workers, [], example1, 0.0, frozenset())
        assert outcome.score == 0

    def test_previously_assigned_unlocks_dependents(self, example1):
        # With t1 and t4 assigned in an earlier batch, w1/w3 can go straight
        # to t2/t3/t5.
        workers = example1.workers
        tasks = [example1.task(i) for i in (2, 3, 5)]
        outcome = DASCGreedy().allocate(workers, tasks, example1, 0.0, frozenset({1, 4}))
        assert outcome.score >= 2
        assert outcome.assignment.is_valid(example1, previously_assigned={1, 4})

    def test_missing_ancestor_blocks_set(self, example1):
        # Without t1 anywhere, t2/t3 are unassignable.
        tasks = [example1.task(i) for i in (2, 3)]
        outcome = DASCGreedy().allocate(example1.workers, tasks, example1, 0.0, frozenset())
        assert outcome.score == 0

    def test_stats_reported(self, example1):
        outcome = run_single_batch(example1, DASCGreedy())
        assert outcome.stats["iterations"] >= 1
        assert outcome.stats["matchings"] >= 1
        assert outcome.elapsed >= 0.0


class TestValidityOnRandomInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_on_small_synthetic(self, seed):
        from repro.datagen.distributions import IntRange
        from repro.datagen.synthetic import SyntheticConfig, generate_synthetic

        instance = generate_synthetic(
            SyntheticConfig(
                num_workers=25, num_tasks=40, skill_universe=8,
                worker_skills=IntRange(1, 3), dependency_size=IntRange(0, 6),
                seed=seed,
            )
        )
        outcome = run_single_batch(instance, DASCGreedy())
        assert outcome.assignment.is_valid(instance, now=instance.earliest_start)

    def test_greedy_picks_largest_set_first(self, example1):
        # The largest *staffable* set is {t1, t2} (size 2); a size-1-first
        # greedy could strand psi-2 coverage.  Verify both chain tasks land.
        outcome = run_single_batch(example1, DASCGreedy())
        assert {1, 2} <= outcome.assignment.assigned_tasks()


class _RescanGreedy(DASCGreedy):
    """The pre-heap implementation, kept verbatim as a pinning oracle.

    Re-sorts every remaining set each iteration and scans largest-first with
    id tie-breaks, skipping the failure memo.  The production allocator
    replaced this scan with a lazy size-ordered heap and drops the sets that
    can never be staffed before any matching; the tests below pin that both
    produce identical assignments, the production one with no more
    ``matchings`` than this scan.
    """

    name = "Greedy(rescan)"

    def _allocate(self, context):
        from typing import Dict, Set

        from repro.algorithms.base import AllocationOutcome
        from repro.core.assignment import Assignment
        from repro.matching.bipartite import match_task_set

        workers, tasks, instance = context.workers, context.tasks, context.instance
        assignment = Assignment()
        if not workers or not tasks:
            return AllocationOutcome(assignment)
        checker = context.checker
        graph = instance.dependency_graph
        batch_task_ids = {t.id for t in tasks}
        assigned: Set[int] = set(context.previously_assigned)

        task_sets: Dict[int, Set[int]] = {}
        for task in tasks:
            members = (graph.associative_set(task.id) - assigned) if task.id in graph else {task.id}
            if members <= batch_task_ids:
                task_sets[task.id] = set(members)

        free_workers: Set[int] = {w.id for w in workers}
        failed: Set[int] = set()
        iterations = 0
        matchings_run = 0

        while task_sets:
            iterations += 1
            best_id = None
            best_staffing = None
            for set_id in sorted(task_sets, key=lambda s: (-len(task_sets[s]), s)):
                if set_id in failed:
                    continue
                matchings_run += 1
                staffing = match_task_set(
                    sorted(task_sets[set_id]), free_workers, checker, instance,
                    self.matching,
                )
                if staffing is None:
                    failed.add(set_id)
                    continue
                best_id = set_id
                best_staffing = staffing
                break
            if best_staffing is None:
                break

            chosen = set(task_sets.pop(best_id))
            for task_id, worker_id in best_staffing.items():
                assignment.add(worker_id, task_id)
                free_workers.discard(worker_id)
                assigned.add(task_id)
            emptied = []
            for set_id, members in task_sets.items():
                if members & chosen:
                    members -= chosen
                    failed.discard(set_id)
                    if not members:
                        emptied.append(set_id)
            for set_id in emptied:
                del task_sets[set_id]
            if not free_workers:
                break

        return AllocationOutcome(
            assignment,
            stats={"iterations": float(iterations), "matchings": float(matchings_run)},
        )


def _scarce_instance(seed, num_workers=6, num_tasks=50):
    from repro.datagen.distributions import IntRange
    from repro.datagen.synthetic import SyntheticConfig, generate_synthetic

    return generate_synthetic(
        SyntheticConfig(
            num_workers=num_workers, num_tasks=num_tasks, skill_universe=10,
            worker_skills=IntRange(1, 2), dependency_size=IntRange(0, 8),
            seed=seed,
        )
    )


def _assert_matches_rescan(instance, done=frozenset()):
    args = (instance.workers, instance.tasks, instance, instance.earliest_start, done)
    fast = DASCGreedy().allocate(*args)
    slow = _RescanGreedy().allocate(*args)
    assert sorted(fast.assignment.pairs()) == sorted(slow.assignment.pairs())
    # Dropped sets would only have failed: they save matchings (and at most
    # the final all-fail iteration), never change a pick.
    assert fast.stats["matchings"] <= slow.stats["matchings"]
    assert fast.stats["iterations"] <= slow.stats["iterations"]


class TestHeapMatchesRescanOracle:
    """The heap and the up-front drop make the rescan's picks, with fewer matchings."""

    def test_example1(self, example1):
        _assert_matches_rescan(example1)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_synthetic(self, seed):
        from repro.datagen.distributions import IntRange
        from repro.datagen.synthetic import SyntheticConfig, generate_synthetic

        instance = generate_synthetic(
            SyntheticConfig(
                num_workers=30, num_tasks=45, skill_universe=8,
                worker_skills=IntRange(1, 3), dependency_size=IntRange(0, 7),
                seed=seed,
            )
        )
        _assert_matches_rescan(instance)

    @pytest.mark.parametrize("seed", [3, 9])
    def test_scarce_workers_exercise_failures(self, seed):
        # Few workers force many failed staffings and unstaffable sets,
        # exercising the up-front drop and the stale-entry discard path.
        _assert_matches_rescan(_scarce_instance(seed))


def _worker(wid, skills):
    return Worker(
        id=wid, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=10.0,
        max_distance=100.0, skills=frozenset(skills),
    )


def _task(tid, skill, deps=()):
    return Task(
        id=tid, location=(1.0, 0.0), start=0.0, wait=100.0, skill=skill,
        dependencies=frozenset(deps),
    )


class TestUnstaffableSetsDropped:
    """Sets with a member no batch worker can serve never reach the matcher."""

    def test_exact_counts(self):
        # Nobody has skill 0, so root t1 is unstaffable and so are the sets
        # of t2 = {1, 2} and t3 = {1, 2, 3}; only t4's set {4} is kept.
        workers = [_worker(1, {1}), _worker(2, {1})]
        tasks = [_task(1, 0), _task(2, 1, {1}), _task(3, 1, {2}), _task(4, 1)]
        instance = ProblemInstance(workers=workers, tasks=tasks, skills=SkillUniverse(2))
        journal = EventJournal()
        fast = DASCGreedy().allocate(
            BatchContext.standalone(workers, tasks, instance, 0.0, journal=journal)
        )
        assert fast.assignment.assigned_tasks() == {4}
        assert fast.stats["dropped_sets"] == 3
        assert fast.stats["matchings"] == 1
        assert fast.stats["iterations"] == 1
        # match_set events are emitted only for sets that reach the matcher.
        assert [(e["set"], e["staffed"]) for e in journal.of_type("match_set")] == [
            (4, True)
        ]
        # The rescan matches sizes 3, 2 and 1 in vain before {4} staffs.
        slow = _RescanGreedy().allocate(workers, tasks, instance, 0.0, frozenset())
        assert sorted(fast.assignment.pairs()) == sorted(slow.assignment.pairs())
        assert slow.stats["matchings"] == 4

    def test_previously_assigned_batch_tasks(self):
        # t1 (nobody has skill 0) and t4 (staffable) are in the batch and
        # already assigned: their sets are their unassigned ancestors (none).
        # t2's set is {2}, t3's {2, 3}, t5's {5}; t6 needs skill 0.
        workers = [_worker(1, {1}), _worker(2, {1}), _worker(3, {1})]
        tasks = [
            _task(1, 0),
            _task(2, 1, {1}),
            _task(3, 1, {2}),
            _task(4, 1),
            _task(5, 1, {4}),
            _task(6, 0, {4}),
        ]
        instance = ProblemInstance(workers=workers, tasks=tasks, skills=SkillUniverse(2))
        done = frozenset({1, 4})
        fast = DASCGreedy().allocate(workers, tasks, instance, 0.0, done)
        slow = _RescanGreedy().allocate(workers, tasks, instance, 0.0, done)
        assert sorted(fast.assignment.pairs()) == sorted(slow.assignment.pairs())
        assert fast.assignment.assigned_tasks() == {2, 3, 5}
        assert fast.assignment.is_valid(instance, previously_assigned=done)
        assert fast.stats["dropped_sets"] == 1

    @pytest.mark.parametrize("seed", [3, 9, 11])
    def test_previously_assigned_mix_matches_rescan(self, seed):
        instance = _scarce_instance(seed)
        checker = FeasibilityChecker(
            instance.workers, instance.tasks, instance.metric, instance.earliest_start
        )
        done = frozenset(t.id for t in instance.tasks[::3])
        # The batch keeps its already-assigned tasks, both kinds of them.
        assert any(checker.workers_of(tid) for tid in done)
        assert any(not checker.workers_of(tid) for tid in done)
        _assert_matches_rescan(instance, done)


@given(
    seed=st.integers(0, 10_000),
    num_workers=st.integers(1, 8),
    mask=st.integers(0, 2**40 - 1),
)
@settings(max_examples=60, deadline=None)
def test_prop_scarce_workers_random_previously_assigned_match_rescan(
    seed, num_workers, mask
):
    instance = _scarce_instance(seed, num_workers=num_workers, num_tasks=40)
    done = frozenset(t.id for k, t in enumerate(instance.tasks) if mask >> k & 1)
    _assert_matches_rescan(instance, done)
