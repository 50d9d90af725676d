"""Property-based tests for the dependency DAG."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependency import CyclicDependencyError, DependencyGraph
from repro.datagen.dependencies import wire_dependencies
from repro.datagen.distributions import IntRange
from tests.reference import EagerDependencyGraph


@st.composite
def random_dags(draw):
    """DAGs built by only allowing edges from lower to higher ids."""
    n = draw(st.integers(1, 25))
    density = draw(st.floats(0.0, 0.5))
    rng = random.Random(draw(st.integers(0, 10_000)))
    direct = {
        tid: {dep for dep in range(tid) if rng.random() < density}
        for tid in range(n)
    }
    return direct


class TestGraphProperties:
    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_topological_order_is_consistent(self, direct):
        graph = DependencyGraph(direct)
        position = {tid: i for i, tid in enumerate(graph.topological_order())}
        for tid in graph:
            for dep in graph.direct_dependencies(tid):
                assert position[dep] < position[tid]

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_closure_is_idempotent_and_superset(self, direct):
        graph = DependencyGraph(direct)
        for tid in graph:
            ancestors = graph.ancestors(tid)
            assert graph.direct_dependencies(tid) <= ancestors
            # closure of the closure adds nothing
            indirect = set()
            for dep in ancestors:
                indirect |= graph.ancestors(dep)
            assert indirect <= ancestors

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_descendants_inverse_of_ancestors(self, direct):
        graph = DependencyGraph(direct)
        for tid in graph:
            for anc in graph.ancestors(tid):
                assert tid in graph.descendants(anc)

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_ready_tasks_monotone(self, direct):
        graph = DependencyGraph(direct)
        ready_empty = set(graph.ready_tasks(set()))
        roots = set(graph.roots())
        assert ready_empty == roots
        # assigning everything makes nothing ready (all assigned)
        assert graph.ready_tasks(set(graph)) == []

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_assigning_in_topological_order_always_ready(self, direct):
        graph = DependencyGraph(direct)
        assigned = set()
        for tid in graph.topological_order():
            assert graph.satisfied(tid, assigned)
            assigned.add(tid)


class TestWireDependenciesProperties:
    @given(
        st.integers(1, 60),
        st.integers(0, 12),
        st.integers(0, 5_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_generated_sets_are_closed_and_acyclic(self, n, max_deps, seed):
        rng = random.Random(seed)
        deps = wire_dependencies(list(range(n)), IntRange(0, max_deps), rng)
        graph = DependencyGraph(deps)  # raises on cycles
        for tid in graph:
            assert graph.direct_dependencies(tid) == graph.ancestors(tid)


@st.composite
def shaped_dags(draw):
    """DAGs of several shapes over sparse ids, closed or not.

    Ids come from a wide range and keys are inserted in shuffled order:
    sets whose ids collide in small hash tables are what expose a change in
    frozenset iteration order.
    """
    shape = draw(st.sampled_from(["random", "chain", "fan_out", "fan_in", "empty"]))
    n = 0 if shape == "empty" else draw(st.integers(1, 80))
    ids = draw(st.lists(st.integers(0, 5_000), min_size=n, max_size=n, unique=True))
    rng = random.Random(draw(st.integers(0, 10_000)))
    direct = {}
    for i, tid in enumerate(ids):
        if shape == "random":
            density = 0.3 if i % 7 else 0.05
            deps = {ids[j] for j in range(i) if rng.random() < density}
        elif shape == "chain":
            deps = set(ids[i - 1:i])
        elif shape == "fan_out":
            deps = {ids[0]} if i else set()
            deps |= {ids[j] for j in range(1, i) if rng.random() < 0.05}
        else:  # fan_in: the last id depends on every other one
            deps = set(ids[:i]) if i == n - 1 else set()
        direct[tid] = deps
    if draw(st.booleans()):  # close every D_t transitively, as the generators do
        for tid in ids:
            for dep in list(direct[tid]):
                direct[tid] |= direct[dep]
    keys = list(direct)
    rng.shuffle(keys)
    return {tid: direct[tid] for tid in keys}


def _assert_same_graph(graph, eager):
    assert graph.topological_order() == eager.topological_order()
    for tid in eager.topological_order():
        dependents = graph.direct_dependents(tid)
        assert dependents == eager.direct_dependents(tid)
        assert list(dependents) == sorted(dependents)
        assert graph.ancestors(tid) == eager.ancestors(tid)
        assert graph.associative_set(tid) == eager.associative_set(tid)
        assert graph.descendants(tid) == eager.descendants(tid)
        assert graph.depth(tid) == eager.depth(tid)


class TestEagerDifferential:
    """The lazy graph gives the eager construction's maps and orders.

    Two orders are part of the contract and are compared as sequences:
    dependents ascend by id (the game sums Eq. 3 shares in that order) and
    the topological order is Kahn's queue (DFS and the exact-set search
    break ties in it).  Every other map is a set and is compared as one.
    """

    @given(shaped_dags())
    @settings(max_examples=150, deadline=None)
    def test_orders_and_maps_match(self, direct):
        _assert_same_graph(DependencyGraph(direct), EagerDependencyGraph(direct))

    @given(
        shaped_dags(),
        st.sampled_from(["direct_dependents", "topological_order", "descendants", "depth"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_lazy_maps_first(self, direct, first):
        graph = DependencyGraph(direct)
        if first == "topological_order":
            graph.topological_order()
        else:
            for tid in reversed(list(direct)):
                getattr(graph, first)(tid)
        _assert_same_graph(graph, EagerDependencyGraph(direct))

    @given(shaped_dags())
    @settings(max_examples=60, deadline=None)
    def test_closed_sets_are_their_own_closure(self, direct):
        graph = DependencyGraph(direct)
        for tid in direct:
            if graph.ancestors(tid) == graph.direct_dependencies(tid):
                assert graph.ancestors(tid) is graph.direct_dependencies(tid)

    @given(shaped_dags(), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_cycles_report_the_same_cycle(self, direct, seed):
        rng = random.Random(seed)
        closed = EagerDependencyGraph(direct)
        edges = [(tid, anc) for tid in direct for anc in sorted(closed.ancestors(tid))]
        if not edges:
            return
        tid, ancestor = rng.choice(edges)
        cyclic = dict(direct)
        cyclic[ancestor] = set(direct[ancestor]) | {tid}
        with pytest.raises(CyclicDependencyError) as expected:
            EagerDependencyGraph(cyclic)
        with pytest.raises(CyclicDependencyError) as got:
            DependencyGraph(cyclic)
        assert got.value.cycle == expected.value.cycle
        assert str(got.value) == str(expected.value)
