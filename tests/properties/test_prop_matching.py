"""Property-based tests for the matching substrate."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.matching.bipartite import match_task_set
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import INFEASIBLE, hungarian


@st.composite
def cost_matrices(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 5))
    rows = [
        [
            draw(
                st.one_of(
                    st.just(INFEASIBLE),
                    st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 3)),
                )
            )
            for _ in range(m)
        ]
        for _ in range(n)
    ]
    return rows


def brute_force_best(cost):
    n, m = len(cost), len(cost[0])
    best_size, best_total = 0, 0.0
    for columns in itertools.permutations(range(m), n):
        total, size = 0.0, 0
        for i, j in enumerate(columns):
            if cost[i][j] != INFEASIBLE:
                total += cost[i][j]
                size += 1
        if size > best_size or (size == best_size and total < best_total):
            best_size, best_total = size, total
    return best_size, best_total


class TestHungarianProperties:
    @given(cost_matrices())
    @settings(max_examples=60, deadline=None)
    def test_optimal_cardinality_then_cost(self, cost):
        assignment, total = hungarian(cost)
        size = sum(1 for c in assignment if c is not None)
        best_size, best_total = brute_force_best(cost)
        assert size == best_size
        assert abs(total - best_total) < 1e-6

    @given(cost_matrices())
    @settings(max_examples=60, deadline=None)
    def test_assignment_is_injective_and_feasible(self, cost):
        assignment, _ = hungarian(cost)
        used = [j for j in assignment if j is not None]
        assert len(used) == len(set(used))
        for i, j in enumerate(assignment):
            if j is not None:
                assert cost[i][j] != INFEASIBLE


@st.composite
def bipartite_graphs(draw):
    n_left = draw(st.integers(0, 8))
    n_right = draw(st.integers(0, 8))
    adjacency = {
        i: sorted(
            draw(st.sets(st.integers(0, max(0, n_right - 1)), max_size=n_right))
        )
        for i in range(n_left)
    }
    if n_right == 0:
        adjacency = {i: [] for i in range(n_left)}
    return adjacency, n_left


def kuhn_size(adjacency, n_left):
    match_r = {}

    def try_assign(left, visited):
        for right in adjacency.get(left, ()):
            if right in visited:
                continue
            visited.add(right)
            if right not in match_r or try_assign(match_r[right], visited):
                match_r[right] = left
                return True
        return False

    return sum(1 for left in range(n_left) if try_assign(left, set()))


class TestHopcroftKarpProperties:
    @given(bipartite_graphs())
    @settings(max_examples=80, deadline=None)
    def test_maximum_cardinality(self, graph):
        adjacency, n_left = graph
        left, right = hopcroft_karp(adjacency, n_left)
        assert len(left) == kuhn_size(adjacency, n_left)

    @given(bipartite_graphs())
    @settings(max_examples=80, deadline=None)
    def test_matching_is_consistent(self, graph):
        adjacency, n_left = graph
        left, right = hopcroft_karp(adjacency, n_left)
        for l, r in left.items():
            assert r in adjacency[l]
            assert right[r] == l
        assert len(set(left.values())) == len(left)


class _ScriptedChecker:
    """Feasibility oracle with arbitrary pinned candidate rows."""

    def __init__(self, rows):
        self._rows = rows

    def workers_of(self, task_id):
        return self._rows.get(task_id, [])


def _matching_universe(rng):
    """A tiny instance plus a randomized candidate table over it."""
    workers = [
        Worker(
            id=i,
            location=(rng.uniform(0, 4), rng.uniform(0, 4)),
            start=0.0,
            wait=100.0,
            velocity=1.0,
            max_distance=50.0,
            skills=frozenset({0}),
        )
        for i in range(5)
    ]
    tasks = [
        Task(
            id=100 + j,
            location=(rng.uniform(0, 4), rng.uniform(0, 4)),
            start=0.0,
            wait=100.0,
            skill=0,
        )
        for j in range(6)
    ]
    instance = ProblemInstance(workers, tasks, SkillUniverse(1))
    rows = {
        t.id: sorted(rng.sample(range(5), rng.randint(0, 4))) for t in tasks
    }
    return instance, tasks, _ScriptedChecker(rows)


@given(st.integers(0, 10_000_000))
@settings(max_examples=50, deadline=None)
def test_staffing_methods_agree_and_respect_rows(seed):
    """Both methods staff the same sets, each with distinct free row members."""
    rng = random.Random(seed)
    instance, tasks, checker = _matching_universe(rng)
    for _ in range(rng.randint(2, 8)):
        tids = [t.id for t in rng.sample(tasks, rng.randint(1, 4))]
        free = set(rng.sample(range(5), rng.randint(1, 5)))
        staffings = [
            match_task_set(tids, free, checker, instance, method=method)
            for method in ("hungarian", "hopcroft-karp")
        ]
        assert (staffings[0] is None) == (staffings[1] is None)
        for staffing in staffings:
            if staffing is None:
                continue
            assert set(staffing) == set(tids)
            assert len(set(staffing.values())) == len(tids)
            for tid, wid in staffing.items():
                assert wid in free and wid in checker.workers_of(tid)
