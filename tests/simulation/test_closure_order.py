"""Decisions do not depend on the closure's iteration order.

On a closed instance ``DependencyGraph.ancestors(t)`` is the very ``D_t``
object, so it iterates in ``D_t``'s order rather than in the order of a
closure rebuilt by unions (:class:`~tests.reference.EagerDependencyGraph`).
Greedy and G-G must report the same runs on either graph: on a generated
Meetup-like instance, and on a hand-built one whose staffing costs all tie,
where any reader of the closure's order would show.
"""

import pytest

from repro.algorithms.registry import make_allocator
from repro.core.dependency import DependencyGraph
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.meetup import MeetupLikeConfig, generate_meetup_like
from repro.simulation.platform import Platform, run_single_batch
from tests.reference import EagerDependencyGraph


class EagerQueryGraph(DependencyGraph):
    """A graph whose every query that the eager oracle answers comes from it."""

    def __init__(self, direct):
        super().__init__(direct)
        self._eager = EagerDependencyGraph(direct)

    def topological_order(self):
        return self._eager.topological_order()

    def ancestors(self, tid):
        return self._eager.ancestors(tid)

    def associative_set(self, tid):
        return self._eager.associative_set(tid)

    def direct_dependents(self, tid):
        return self._eager.direct_dependents(tid)

    def descendants(self, tid):
        return self._eager.descendants(tid)

    def depth(self, tid):
        return self._eager.depth(tid)


def _instance(graph_type=None):
    instance = generate_meetup_like(MeetupLikeConfig(seed=7).scaled(0.3))
    if graph_type is not None:
        direct = {task.id: task.dependencies for task in instance.tasks}
        instance.__dict__["dependency_graph"] = graph_type(direct)
    return instance


def _run(instance, name):
    return Platform(instance, make_allocator(name, seed=7), batch_interval=2.0).run()


def test_instance_reorders_some_closure():
    graph = _instance().dependency_graph
    eager = _instance(EagerQueryGraph).dependency_graph
    assert all(graph.ancestors(tid) is graph.direct_dependencies(tid) for tid in graph)
    assert any(tuple(graph.ancestors(tid)) != tuple(eager.ancestors(tid)) for tid in graph)


@pytest.mark.parametrize("name", ["Greedy", "G-G"])
def test_reports_equal_on_the_eager_graph(name):
    lazy = _run(_instance(), name)
    eager = _run(_instance(EagerQueryGraph), name)
    assert lazy.assignments == eager.assignments
    assert lazy.completion_times == eager.completion_times
    assert lazy.expired_tasks == eager.expired_tasks
    assert [(b.time, b.score) for b in lazy.batches] == [
        (b.time, b.score) for b in eager.batches
    ]
    assert lazy.engine_stats == eager.engine_stats


#: Each leaf's ``D_t`` in the order it is filled.  Five members put the
#: frozenset in a 32-slot table, while the eager graph's union rebuilds it
#: in a 16-slot one, so each closure iterates differently on the two graphs
#: (ids ``x`` and ``x + 16`` swap places).
_LEAVES = {
    100: [3, 17, 20, 36, 49],
    101: [65, 49, 36, 23, 7],
    102: [7, 3, 65, 17, 20],
    103: [3, 17, 20, 36, 16],
}
#: The one root no worker has the skill for: sets holding it are dropped.
_UNSTAFFABLE = 16


def _near_tie_instance(graph_type=None):
    """Every staffing of a set costs the same.

    Tasks sit at ``(1, 0)`` and workers at the origin, every worker has
    every task's skill but ``_UNSTAFFABLE``'s, and every leaf depends on
    five roots: distances, crowds and ``|D_d|`` are all equal, so which of
    the equally cheap staffings the matcher returns follows the order the
    set is handed to it in.
    """
    roots = sorted({dep for deps in _LEAVES.values() for dep in deps})
    tasks = [
        Task(id=tid, location=(1.0, 0.0), start=0.0, wait=100.0,
             skill=1 if tid == _UNSTAFFABLE else 0)
        for tid in roots
    ]
    tasks += [
        Task(id=tid, location=(1.0, 0.0), start=0.0, wait=100.0, skill=0,
             dependencies=frozenset(deps))
        for tid, deps in _LEAVES.items()
    ]
    workers = [
        Worker(id=w, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=1.0,
               max_distance=10.0, skills=frozenset({0}))
        for w in range(8)
    ]
    instance = ProblemInstance(workers=workers, tasks=tasks, skills=SkillUniverse(2))
    if graph_type is not None:
        direct = {task.id: task.dependencies for task in instance.tasks}
        instance.__dict__["dependency_graph"] = graph_type(direct)
    return instance


def test_near_tie_instance_reorders_every_closure():
    graph = _near_tie_instance().dependency_graph
    eager = _near_tie_instance(EagerQueryGraph).dependency_graph
    for tid in _LEAVES:
        assert graph.ancestors(tid) is graph.direct_dependencies(tid)
        assert tuple(graph.ancestors(tid)) != tuple(eager.ancestors(tid))
    # The first member each graph yields differs in staffability.
    first = next(iter(graph.ancestors(103)))
    assert (first == _UNSTAFFABLE) != (next(iter(eager.ancestors(103))) == _UNSTAFFABLE)


@pytest.mark.parametrize("name", ["Greedy", "G-G"])
def test_near_tie_decisions_equal_on_the_eager_graph(name):
    lazy = run_single_batch(_near_tie_instance(), make_allocator(name, seed=7), now=0.0)
    eager = run_single_batch(
        _near_tie_instance(EagerQueryGraph), make_allocator(name, seed=7), now=0.0
    )
    assert sorted(lazy.assignment.pairs()) == sorted(eager.assignment.pairs())
    assert lazy.stats == eager.stats
