"""DependencyGraph tests."""

import pytest

from repro.core.dependency import CyclicDependencyError, DependencyGraph
from repro.core.exceptions import DascError
from repro.core.task import Task
from tests.reference import EagerDependencyGraph


def diamond() -> DependencyGraph:
    #     1
    #    / \
    #   2   3
    #    \ /
    #     4
    return DependencyGraph({1: set(), 2: {1}, 3: {1}, 4: {2, 3}})


class TestConstruction:
    def test_unknown_dependency_rejected(self):
        with pytest.raises(DascError) as err:
            DependencyGraph({1: {99, 2, 7}, 2: set()})
        assert str(err.value) == "task 1 depends on unknown task(s) [7, 99]"

    def test_cycle_detected(self):
        with pytest.raises(CyclicDependencyError) as err:
            DependencyGraph({1: {2}, 2: {3}, 3: {1}})
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {1, 2, 3}

    def test_two_node_cycle(self):
        with pytest.raises(CyclicDependencyError):
            DependencyGraph({1: {2}, 2: {1}})

    def test_from_tasks(self):
        tasks = [
            Task(id=1, location=(0, 0), start=0, wait=1, skill=0),
            Task(id=2, location=(0, 0), start=0, wait=1, skill=0,
                 dependencies=frozenset({1})),
        ]
        graph = DependencyGraph.from_tasks(tasks)
        assert graph.direct_dependencies(2) == {1}

    def test_empty_graph(self):
        graph = DependencyGraph({})
        assert len(graph) == 0
        assert graph.topological_order() == []


class TestConstructionPaths:
    """Size order, Kahn fallback and closed sets reused as their closure."""

    @staticmethod
    def _count_kahn(monkeypatch):
        calls = []
        kahn = DependencyGraph._kahn_order

        def spy(self):
            calls.append(self._kahn is None)
            return kahn(self)

        monkeypatch.setattr(DependencyGraph, "_kahn_order", spy)
        return calls

    def test_closed_sets_are_their_own_closure(self, monkeypatch):
        calls = self._count_kahn(monkeypatch)
        graph = DependencyGraph({4: {1, 2, 3}, 1: set(), 3: {1, 2}, 2: {1}})
        assert calls == []  # the size order is topological: no queue built
        for tid in graph:
            assert graph.ancestors(tid) is graph.direct_dependencies(tid)

    def test_unclosed_set_is_unioned(self):
        graph = diamond()
        assert graph.ancestors(4) == {1, 2, 3}
        assert graph.ancestors(4) is not graph.direct_dependencies(4)
        assert graph.ancestors(2) is graph.direct_dependencies(2)

    def test_reverse_chain_takes_the_kahn_fallback(self, monkeypatch):
        calls = self._count_kahn(monkeypatch)
        direct = {i: ({i - 1} if i else set()) for i in reversed(range(6))}
        graph = DependencyGraph(direct)
        assert calls == [True]  # built once, during construction
        assert graph.topological_order() == EagerDependencyGraph(direct).topological_order()
        assert calls == [True, False]  # the cached queue is reused
        assert graph.ancestors(5) == frozenset(range(5))

    @pytest.mark.parametrize(
        "direct",
        [
            {1: {1}},
            {2: set(), 1: {1, 2}},
            {1: {2}, 2: {1}, 3: set()},
            {3: {1}, 1: {2}, 2: {3}, 0: set(), 4: {0, 1}},
        ],
    )
    def test_cycles_raise_as_the_eager_graph_does(self, direct):
        with pytest.raises(CyclicDependencyError) as expected:
            EagerDependencyGraph(direct)
        with pytest.raises(CyclicDependencyError) as got:
            DependencyGraph(direct)
        assert got.value.cycle == expected.value.cycle
        assert str(got.value) == str(expected.value)


class TestQueries:
    def test_ancestors_close_transitively(self):
        graph = diamond()
        assert graph.ancestors(4) == {1, 2, 3}
        assert graph.ancestors(2) == {1}
        assert graph.ancestors(1) == frozenset()

    def test_descendants(self):
        graph = diamond()
        assert graph.descendants(1) == {2, 3, 4}
        assert graph.descendants(4) == frozenset()

    def test_direct_dependents(self):
        graph = diamond()
        assert graph.direct_dependents(1) == (2, 3)
        assert graph.direct_dependents(2) == (4,)

    def test_roots(self):
        assert diamond().roots() == [1]

    def test_topological_order_respects_edges(self):
        graph = diamond()
        order = graph.topological_order()
        position = {tid: i for i, tid in enumerate(order)}
        for tid in graph:
            for dep in graph.direct_dependencies(tid):
                assert position[dep] < position[tid]

    def test_depth(self):
        graph = diamond()
        assert graph.depth(1) == 0
        assert graph.depth(2) == 1
        assert graph.depth(4) == 2

    def test_associative_set(self):
        graph = diamond()
        assert graph.associative_set(4) == {1, 2, 3, 4}
        assert graph.associative_set(1) == {1}

    def test_associative_sets_match_example1(self):
        # Example 1: {{t1}, {t1,t2}, {t1,t2,t3}, {t4}, {t4,t5}}
        graph = DependencyGraph({1: set(), 2: {1}, 3: {1, 2}, 4: set(), 5: {4}})
        sets = graph.associative_sets()
        assert sets == {
            1: frozenset({1}),
            2: frozenset({1, 2}),
            3: frozenset({1, 2, 3}),
            4: frozenset({4}),
            5: frozenset({4, 5}),
        }


class TestSatisfaction:
    def test_satisfied_requires_all_direct_deps(self):
        graph = diamond()
        assert graph.satisfied(4, {2, 3})
        assert not graph.satisfied(4, {2})
        assert graph.satisfied(1, set())

    def test_ready_tasks(self):
        graph = diamond()
        assert graph.ready_tasks(set()) == [1]
        assert sorted(graph.ready_tasks({1})) == [2, 3]
        assert graph.ready_tasks({1, 2, 3}) == [4]
        assert graph.ready_tasks({1, 2, 3, 4}) == []

    def test_satisfied_is_monotone_in_assigned_set(self):
        graph = diamond()
        assert not graph.satisfied(4, {2})
        assert graph.satisfied(4, {2, 3, 1})


class TestDeepChain:
    def test_long_chain_closure(self):
        n = 500
        graph = DependencyGraph({i: ({i - 1} if i else set()) for i in range(n)})
        assert graph.ancestors(n - 1) == frozenset(range(n - 1))
        assert graph.depth(n - 1) == n - 1
        assert graph.topological_order() == list(range(n))


class TestAdjacencySnapshots:
    def test_dependents_ascend_whatever_the_key_order(self):
        direct = {900: {7, 4000}, 7: set(), 4000: set(), 12: {4000}, 3: {7, 4000}}
        graph = DependencyGraph(direct)
        assert graph.direct_dependents(4000) == (3, 12, 900)
        assert graph.direct_dependents(7) == (3, 900)
        for tid in graph:
            assert graph.dependent_pairs(tid) == tuple(
                (d, graph.direct_dependencies(d)) for d in graph.direct_dependents(tid)
            )

    def test_snapshots_are_cached(self):
        graph = diamond()
        assert graph.direct_dependents(1) is graph.direct_dependents(1)
        assert graph.dependent_pairs(1) is graph.dependent_pairs(1)
        assert graph.influence_set(1) is graph.influence_set(1)

    def test_influence_matches_bruteforce_read_set(self):
        import random as _random

        from repro.datagen.dependencies import wire_dependencies
        from repro.datagen.distributions import IntRange

        for seed in range(20):
            rng = _random.Random(seed)
            deps = wire_dependencies(list(range(10)), IntRange(0, 4), rng)
            graph = DependencyGraph(deps)

            def reads(tid):
                # indicators task_value(tid) touches: the dependency gate,
                # each dependent, and each dependent's gate — minus tid
                # itself (extra masks it).
                out = set(graph.direct_dependencies(tid))
                for d in graph.direct_dependents(tid):
                    out.add(d)
                    out |= graph.direct_dependencies(d)
                out.discard(tid)
                return out

            for flipped in graph:
                expected = {t for t in graph if flipped in reads(t)}
                assert graph.influence_set(flipped) == frozenset(expected)

    def test_influence_excludes_self(self):
        graph = diamond()
        for tid in graph:
            assert tid not in graph.influence_set(tid)

    def test_influence_of_diamond_root(self):
        graph = diamond()
        # 1's value reads nothing upward; 2 and 3 read a_1 via their gates,
        # and 1 reads a_2/a_3 (dependents) — so flipping 1 affects {2, 3}.
        assert set(graph.influence_set(1)) == {2, 3}
        # flipping 4 affects its dependencies' dependent-sums: {2, 3}.
        assert set(graph.influence_set(4)) == {2, 3}
        # flipping 2 affects 1 (dependent-sum), 4 (gate) and 3 (sibling in
        # 4's gate).
        assert set(graph.influence_set(2)) == {1, 3, 4}
