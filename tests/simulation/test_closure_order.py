"""Decisions do not depend on the closure's iteration order.

On a closed instance ``DependencyGraph.ancestors(t)`` is the very ``D_t``
object, so it iterates in ``D_t``'s order rather than in the order of a
closure rebuilt by unions (:class:`~tests.reference.EagerDependencyGraph`).
Greedy and G-G must report the same runs on either graph.
"""

import pytest

from repro.algorithms.registry import make_allocator
from repro.core.dependency import DependencyGraph
from repro.datagen.meetup import MeetupLikeConfig, generate_meetup_like
from repro.simulation.platform import Platform
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

    def dependent_tuple(self, tid):
        return self._eager.dependent_tuple(tid)

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
