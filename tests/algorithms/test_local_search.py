"""Local-search improver tests."""

import pytest

from repro.algorithms.baselines import RandomBaseline
from repro.algorithms.dfs import DFSExact
from repro.algorithms.game import DASCGame
from repro.algorithms.greedy import DASCGreedy
from repro.algorithms.local_search import LocalSearchImprover, improve_assignment
from repro.core.assignment import Assignment
from repro.simulation.platform import run_single_batch

from tests.reference import ExhaustiveChecker


class TestImproveAssignment:
    def test_fill_assigns_ready_tasks(self, example1):
        checker = ExhaustiveChecker(example1.workers, example1.tasks)
        assignment = Assignment()
        improved = improve_assignment(assignment, checker, example1)
        # idle workers should pick up ready work; the optimum here is 3
        assert improved.score >= 2
        assert improved.is_valid(example1, now=example1.earliest_start)

    def test_relocate_frees_a_versatile_worker(self, example1):
        # Start from a deliberately wasteful choice: w3 (the only psi-3
        # holder) sits on t1, which w1 could also do.
        checker = ExhaustiveChecker(example1.workers, example1.tasks)
        assignment = Assignment([(3, 1)])
        improved = improve_assignment(assignment, checker, example1)
        assert improved.score == 3
        assert improved.is_valid(example1, now=example1.earliest_start)

    def test_never_decreases_score(self, small_synthetic):
        checker = ExhaustiveChecker(
            small_synthetic.workers, small_synthetic.tasks,
            now=small_synthetic.earliest_start,
        )
        base = run_single_batch(small_synthetic, DASCGreedy()).assignment
        before = base.score
        improved = improve_assignment(
            base.copy(), checker, small_synthetic
        )
        assert improved.score >= before

    def test_respects_max_passes(self, example1):
        checker = ExhaustiveChecker(example1.workers, example1.tasks)
        improved = improve_assignment(Assignment(), checker, example1, max_passes=1)
        assert improved.is_valid(example1, now=example1.earliest_start)


class TestLocalSearchImprover:
    def test_name_composes(self):
        improver = LocalSearchImprover(DASCGreedy())
        assert improver.name == "Greedy+LS"

    def test_rejects_bad_passes(self):
        with pytest.raises(ValueError, match="max_passes"):
            LocalSearchImprover(DASCGreedy(), max_passes=0)

    def test_empty_inputs_pass_through(self, example1):
        improver = LocalSearchImprover(DASCGreedy())
        assert improver.allocate([], example1.tasks, example1, 0.0, frozenset()).score == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_improves_random_baseline_toward_optimum(self, seed, small_synthetic):
        plain = run_single_batch(small_synthetic, RandomBaseline(seed=seed)).score
        polished = run_single_batch(
            small_synthetic, LocalSearchImprover(RandomBaseline(seed=seed))
        )
        optimum = run_single_batch(small_synthetic, DFSExact()).score
        assert plain <= polished.score <= optimum
        assert polished.assignment.is_valid(
            small_synthetic, now=small_synthetic.earliest_start
        )

    def test_gain_reported_in_stats(self, small_synthetic):
        polished = run_single_batch(
            small_synthetic, LocalSearchImprover(RandomBaseline(seed=1))
        )
        assert polished.stats["ls_gain"] >= 0.0

    def test_never_hurts_game(self, small_synthetic):
        base = run_single_batch(small_synthetic, DASCGame(seed=2)).score
        polished = run_single_batch(
            small_synthetic, LocalSearchImprover(DASCGame(seed=2))
        ).score
        assert polished >= base


# -- incremental-state equivalence ----------------------------------------------


def _reference_improve(assignment, checker, instance, previously_assigned=frozenset(),
                       max_passes=10):
    """The historical rebuild-per-sweep implementation, kept as an oracle."""
    from repro.engine.context import ReadinessView

    graph = instance.dependency_graph
    all_workers = {w.id for w in checker.workers}
    all_tasks = {t.id for t in checker.tasks}

    def fill_pass():
        changed = False
        progress = True
        while progress:
            progress = False
            readiness = ReadinessView(
                graph, previously_assigned, assignment.assigned_tasks()
            )
            idle = sorted(all_workers - assignment.assigned_workers())
            open_tasks = set(all_tasks) - assignment.assigned_tasks()
            for worker_id in idle:
                for task_id in checker.tasks_of(worker_id):
                    if task_id not in open_tasks:
                        continue
                    if not readiness.ready(task_id):
                        continue
                    assignment.add(worker_id, task_id)
                    readiness.mark(task_id)
                    open_tasks.discard(task_id)
                    progress = True
                    changed = True
                    break
        return changed

    def relocate_pass():
        changed = False
        progress = True
        while progress:
            progress = False
            readiness = ReadinessView(
                graph, previously_assigned, assignment.assigned_tasks()
            )
            idle = sorted(all_workers - assignment.assigned_workers())
            open_tasks = set(all_tasks) - assignment.assigned_tasks()
            open_ready = [t for t in sorted(open_tasks) if readiness.ready(t)]
            if not idle or not open_ready:
                break
            idle_set = set(idle)
            for worker_id, task_id in list(assignment.pairs()):
                substitute = next(
                    (w for w in checker.workers_of(task_id) if w in idle_set), None
                )
                if substitute is None:
                    continue
                feasible = set(checker.tasks_of(worker_id))
                extra = next((t for t in open_ready if t in feasible), None)
                if extra is None:
                    continue
                assignment.remove_task(task_id)
                assignment.add(substitute, task_id)
                assignment.add(worker_id, extra)
                idle_set.discard(substitute)
                open_ready.remove(extra)
                progress = True
                changed = True
                if not idle_set or not open_ready:
                    break
        return changed

    for _ in range(max_passes):
        changed = fill_pass()
        changed |= relocate_pass()
        if not changed:
            break
    return assignment


class TestIncrementalEquivalence:
    """The maintained-view sweeps replay the rebuild-per-sweep moves exactly."""

    def _compare(self, instance, base, now):
        checker = ExhaustiveChecker(instance.workers, instance.tasks, now=now)
        seed_assignment = run_single_batch(instance, base, now=now).assignment
        fast = improve_assignment(seed_assignment.copy(), checker, instance)
        slow = _reference_improve(seed_assignment.copy(), checker, instance)
        assert sorted(fast.pairs()) == sorted(slow.pairs())

    def test_matches_reference_on_example1(self, example1):
        self._compare(example1, DASCGreedy(), example1.earliest_start)

    def test_matches_reference_on_small_synthetic(self, small_synthetic):
        now = small_synthetic.earliest_start
        for base in (DASCGreedy(), RandomBaseline(seed=3), DASCGame(seed=3)):
            self._compare(small_synthetic, base, now)

    def test_matches_reference_from_empty(self, small_synthetic):
        instance = small_synthetic
        checker = ExhaustiveChecker(
            instance.workers, instance.tasks, now=instance.earliest_start
        )
        fast = improve_assignment(Assignment(), checker, instance)
        slow = _reference_improve(Assignment(), checker, instance)
        assert sorted(fast.pairs()) == sorted(slow.pairs())

    def test_matches_reference_with_previously_assigned(self, example1):
        checker = ExhaustiveChecker(example1.workers, example1.tasks)
        prev = frozenset({1})
        fast = improve_assignment(Assignment(), checker, example1, prev)
        slow = _reference_improve(Assignment(), checker, example1, prev)
        assert sorted(fast.pairs()) == sorted(slow.pairs())
