"""Every batch the platform commits satisfies Definition 3.

Allocators promise valid assignments; these tests check the promise for
every approach plus the modes whose quality is only measured
(``reassign_losers`` and local search).  Single batches decided on the
engine's feasibility view are checked pair by pair against the exhaustive
oracle; full platform runs are checked on the records each batch was
decided on: skill, reach, deadline and dependency per batch, and
exclusivity across batches, under every rejoin policy.
"""

import pytest

from repro.algorithms.game import DASCGame
from repro.algorithms.greedy import DASCGreedy
from repro.algorithms.local_search import LocalSearchImprover
from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.engine import AllocationEngine
from repro.simulation.platform import Platform, RejoinPolicy

from tests.reference import ExhaustiveChecker
from tests.workloads import WORKLOADS, dependency_chain

NAMES = APPROACH_NAMES + ["Game+reassign", "Greedy+LS"]


def _allocator(name):
    if name == "Game+reassign":
        return DASCGame(init="random", seed=11, reassign_losers=True)
    if name == "Greedy+LS":
        return LocalSearchImprover(DASCGreedy())
    return make_allocator(name, seed=11)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return request.param, WORKLOADS[request.param]()


def _one_batch(instance, name, previously_assigned=frozenset()):
    """One allocation on the engine's view of the whole open population.

    As on the platform, tasks assigned in earlier batches are not open:
    they only count toward dependency readiness.
    """
    now = instance.earliest_start
    tasks = [t for t in instance.tasks if t.id not in previously_assigned]
    context = AllocationEngine(instance).begin_batch(
        instance.workers, tasks, now, previously_assigned
    )
    return _allocator(name).allocate(context), now


class TestOneBatch:
    @pytest.mark.parametrize("name", NAMES)
    def test_every_pair_feasible(self, workload, name):
        _, instance = workload
        outcome, now = _one_batch(instance, name)
        checker = ExhaustiveChecker(
            instance.workers, instance.tasks, instance.metric, now
        )
        pairs = list(outcome.assignment.pairs())
        assert pairs, "contested workloads always staff something in batch 0"
        for wid, tid in pairs:
            assert checker.feasible(wid, tid)
        assert outcome.assignment.violations(instance, now) == []

    @pytest.mark.parametrize("name", NAMES)
    def test_no_double_assignment(self, workload, name):
        _, instance = workload
        outcome, _ = _one_batch(instance, name)
        pairs = list(outcome.assignment.pairs())
        wids = [w for w, _ in pairs]
        tids = [t for _, t in pairs]
        assert len(wids) == len(set(wids))
        assert len(tids) == len(set(tids))

    @pytest.mark.parametrize("name", NAMES)
    def test_previously_assigned_tasks_satisfy_dependencies(self, workload, name):
        label, instance = workload
        done = frozenset(t.id for t in instance.tasks[: len(instance.tasks) // 2])
        outcome, now = _one_batch(instance, name, done)
        staffed = {t for _, t in outcome.assignment.pairs()}
        assert staffed and not staffed & done
        assert outcome.assignment.violations(instance, now, done) == []
        # Some staffed task could only start because an earlier batch
        # finished one of its prerequisites.
        assert any(instance.task(t).dependencies & done for t in staffed)
        if label == "chain":
            # The done links count, so the rest of the chain is staffable
            # at once.
            assert staffed == {t.id for t in instance.tasks} - done

    @pytest.mark.parametrize("name", NAMES)
    def test_chain_resolves_in_one_batch(self, name):
        # Each link's prerequisites sit in the far cluster; the allocator
        # must see the whole batch's picks to keep all of them.
        instance = dependency_chain(n_links=4)
        outcome, _ = _one_batch(instance, name)
        assert sorted(t for _, t in outcome.assignment.pairs()) == [0, 1, 2, 3]


class _BatchView:
    """The instance as one batch saw it: the batch's own worker records.

    Rejoined workers are relocated copies, so a batch's assignment is
    checked against the records it was decided on, not the originals.
    """

    def __init__(self, instance, workers):
        self._instance = instance
        self._workers = {w.id: w for w in workers}
        self.worker_ids = frozenset(self._workers)
        self.task_ids = instance.task_ids
        self.metric = instance.metric
        self.dependency_graph = instance.dependency_graph

    def worker(self, worker_id):
        return self._workers[worker_id]

    def task(self, task_id):
        return self._instance.task(task_id)


@pytest.mark.parametrize("rejoin", list(RejoinPolicy))
@pytest.mark.parametrize("name", NAMES)
def test_every_batch_valid(workload, monkeypatch, name, rejoin):
    label, instance = workload
    allocator = _allocator(name)
    batches = []
    allocate = allocator.allocate

    def checked(context):
        outcome = allocate(context)
        batches.append(
            (
                list(context.workers),
                {t.id for t in context.tasks},
                context.now,
                context.previously_assigned,
                outcome,
            )
        )
        return outcome

    monkeypatch.setattr(allocator, "allocate", checked)
    report = Platform(instance, allocator, batch_interval=5.0, rejoin=rejoin).run()
    assert report.total_score > 0
    committed = set()
    for workers, open_ids, now, before, outcome in batches:
        view = _BatchView(instance, workers)
        assert outcome.assignment.violations(view, now, before) == []
        tids = [tid for _, tid in outcome.assignment.pairs()]
        assert set(tids) <= open_ids
        assert not set(tids) & committed
        committed.update(tids)
    assert committed == set(report.assignments)
    if label == "chain":
        # Every link and all its prerequisites are staffable in batch 0.
        assert report.total_score == len(instance.tasks)
