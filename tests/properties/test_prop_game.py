"""Property-based tests for the game: Eq. 3 decomposition and potentials.

The incremental :class:`GameState` (value memo, unassigned-dependency
counts, contention multimap) is additionally pinned float-for-float against
:class:`ReferenceGameState` — the verbatim pre-cache implementation, kept
in ``tests/reference.py`` — under
arbitrary move sequences, withdrawn-view candidate evaluations, and whole
game runs.  Equality below is exact (``==`` on floats), because bit-identity
is the engine's contract, not approximate agreement.
"""

import random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.game import _EPS
from repro.algorithms.utility import GameState
from repro.analysis.equilibrium import TOLERANCE
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.dependencies import wire_dependencies
from repro.datagen.distributions import IntRange
from tests.reference import NaiveDASCGame, ReferenceGameState


def build_instance(n_tasks, dep_seed, max_deps):
    """A spatially-trivial instance: utilities only depend on the DAG."""
    skills = SkillUniverse(1)
    rng = random.Random(dep_seed)
    deps = wire_dependencies(list(range(n_tasks)), IntRange(0, max_deps), rng)
    tasks = [
        Task(id=tid, location=(0.0, 0.0), start=0.0, wait=100.0, skill=0,
             dependencies=deps[tid])
        for tid in range(n_tasks)
    ]
    workers = [
        Worker(id=w, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=1.0,
               max_distance=10.0, skills=frozenset({0}))
        for w in range(n_tasks + 2)
    ]
    return ProblemInstance(workers=workers, tasks=tasks, skills=skills)


@st.composite
def game_profiles(draw):
    n_tasks = draw(st.integers(2, 8))
    max_deps = draw(st.integers(0, 3))
    dep_seed = draw(st.integers(0, 1000))
    alpha = draw(st.floats(1.5, 20.0))
    instance = build_instance(n_tasks, dep_seed, max_deps)
    players = list(range(n_tasks + 2))
    state = GameState(instance, instance.tasks, players, alpha=alpha)
    for w in players:
        choice = draw(st.one_of(st.none(), st.integers(0, n_tasks - 1)))
        state.set_choice(w, choice)
    return state, instance


class TestDecomposition:
    @given(game_profiles())
    @settings(max_examples=80, deadline=None)
    def test_total_utility_equals_valid_task_count(self, profile):
        # Observation of Section IV-B: Sum(M) = sum_w U_w, where a task
        # counts iff it and all its dependencies are chosen by someone.
        state, instance = profile
        graph = instance.dependency_graph
        chosen = set(state.chosen_tasks())
        valid = sum(
            1
            for t in chosen
            if graph.direct_dependencies(t) <= chosen
        )
        assert abs(state.total_utility() - valid) < 1e-9

    @given(game_profiles())
    @settings(max_examples=50, deadline=None)
    def test_utilities_nonnegative_and_bounded(self, profile):
        # A worker's utility is bounded by its task's maximum realisable
        # value: 1 (self) plus a 1/(alpha*|D_l|) share from each dependent.
        state, instance = profile
        graph = instance.dependency_graph
        for w in state.choice:
            u = state.utility(w)
            assert u >= 0.0
            task = state.choice[w]
            if task is None:
                continue
            bound = 1.0 + sum(
                1.0 / (state.alpha * len(graph.direct_dependencies(dep)))
                for dep in graph.direct_dependents(task)
            )
            assert u <= bound + 1e-9


class TestExactPotential:
    @given(game_profiles(), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_delta_u_equals_delta_phi_for_congestion_moves(self, profile, move_seed):
        """Theorem IV.1 on moves that flip no assignment indicator."""
        state, _ = profile
        rng = random.Random(move_seed)
        # candidates: tasks already chosen by >= 1 worker
        crowded = [t for t, c in state.nw.items() if c >= 1]
        movers = [
            w
            for w, t in state.choice.items()
            if t is not None and state.nw[t] >= 2  # origin keeps a worker
        ]
        if not crowded or not movers:
            return
        worker = rng.choice(sorted(movers))
        target = rng.choice(sorted(crowded))
        if target == state.choice[worker]:
            return
        u_before = state.utility(worker)
        phi_before = state.potential()
        state.set_choice(worker, target)
        u_after = state.utility(worker)
        phi_after = state.potential()
        assert abs((u_after - u_before) - (phi_after - phi_before)) < 1e-9

    @given(game_profiles())
    @settings(max_examples=40, deadline=None)
    def test_paper_potential_nonpositive(self, profile):
        state, _ = profile
        assert state.potential_paper() <= 1e-12

    @given(game_profiles())
    @settings(max_examples=40, deadline=None)
    def test_harmonic_potential_nonnegative(self, profile):
        state, _ = profile
        assert state.potential() >= -1e-12


@st.composite
def paired_states(draw):
    """An incremental and a reference state plus a shared move script."""
    n_tasks = draw(st.integers(2, 8))
    max_deps = draw(st.integers(0, 3))
    dep_seed = draw(st.integers(0, 1000))
    alpha = draw(st.floats(1.5, 20.0))
    prev = draw(st.sets(st.integers(0, n_tasks - 1), max_size=2))
    instance = build_instance(n_tasks, dep_seed, max_deps)
    players = list(range(n_tasks + 2))
    fast = GameState(instance, instance.tasks, players, prev, alpha=alpha)
    slow = ReferenceGameState(instance, instance.tasks, players, prev, alpha=alpha)
    moves = draw(
        st.lists(
            st.tuples(
                st.sampled_from(players),
                st.one_of(st.none(), st.integers(0, n_tasks - 1)),
            ),
            max_size=25,
        )
    )
    return fast, slow, moves, instance


def _assert_states_identical(fast, slow, instance):
    """Every observable of the two states, compared exactly."""
    graph = instance.dependency_graph
    assert fast.nw == slow.nw
    assert fast.choice == slow.choice
    assert fast.chosen_tasks() == slow.chosen_tasks()
    for tid in graph:
        assert fast.workers_on(tid) == slow.workers_on(tid)
        assert fast.assigned(tid) == slow.assigned(tid)
        assert fast.deps_satisfied(tid) == slow.deps_satisfied(tid)
        assert fast.fully_realised(tid) == slow.fully_realised(tid)
        assert fast.task_value(tid) == slow.task_value(tid)
        assert fast.task_value(tid, extra=tid) == slow.task_value(tid, extra=tid)
    for w in fast.choice:
        assert fast.utility(w) == slow.utility(w)
    assert fast.total_utility() == slow.total_utility()
    assert fast.potential() == slow.potential()
    assert fast.potential_paper() == slow.potential_paper()


class TestIncrementalStateEquivalence:
    @given(paired_states())
    @settings(max_examples=80, deadline=None)
    def test_identical_after_every_move(self, scenario):
        fast, slow, moves, instance = scenario
        for worker_id, task_id in moves:
            fast.set_choice(worker_id, task_id)
            slow.set_choice(worker_id, task_id)
            _assert_states_identical(fast, slow, instance)

    @given(paired_states())
    @settings(max_examples=80, deadline=None)
    def test_candidate_utility_matches_withdrawn_reference(self, scenario):
        """The no-withdrawal evaluation path vs the reference protocol."""
        fast, slow, moves, instance = scenario
        n_tasks = len(instance.tasks)
        for worker_id, task_id in moves:
            fast.set_choice(worker_id, task_id)
            slow.set_choice(worker_id, task_id)
        for worker_id in fast.choice:
            current = slow.choice[worker_id]
            slow.set_choice(worker_id, None)
            for candidate in range(n_tasks):
                expected = slow.utility_of_choice(worker_id, candidate)
                assert fast.candidate_utility(worker_id, candidate) == expected
            slow.set_choice(worker_id, current)
            # evaluation is read-only: the committed profile never moved
            assert fast.choice[worker_id] == current

    @given(paired_states())
    @settings(max_examples=60, deadline=None)
    def test_potential_identical_on_cached_path(self, scenario):
        """The cached task_value path cannot bend the potential landscape."""
        fast, slow, moves, instance = scenario
        for worker_id, task_id in moves:
            fast.set_choice(worker_id, task_id)
            slow.set_choice(worker_id, task_id)
            # same landscape point as the walk-everything reference...
            assert fast.potential() == slow.potential()
        # ...and as a state built from scratch at the final profile (no
        # cache-drift accumulated over the whole move script).  Tolerance,
        # not ==: potential() sums over nw in insertion order, and a fresh
        # state's nw was populated in a different order than one that
        # walked the move script — last-ulp drift there predates the cache
        # and is not part of the bit-identity contract (which is about
        # identical *trajectories*, pinned exactly above).
        fresh = ReferenceGameState(
            instance, instance.tasks, list(slow.choice), slow.prev,
            alpha=slow.alpha,
        )
        for w, t in slow.choice.items():
            fresh.set_choice(w, t)
        assert abs(fast.potential() - fresh.potential()) < 1e-9

    @given(paired_states(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_full_game_runs_identically(self, scenario, seed):
        from repro.algorithms.game import DASCGame
        from repro.simulation.platform import run_single_batch

        _, _, _, instance = scenario
        fast = run_single_batch(instance, DASCGame(seed=seed), now=0.0)
        slow = run_single_batch(instance, NaiveDASCGame(seed=seed), now=0.0)
        assert sorted(fast.assignment.pairs()) == sorted(slow.assignment.pairs())
        assert fast.stats["rounds"] == slow.stats["rounds"]


def _recount_pay(state, task_id):
    """``{k: c_k}`` of ``task_id``'s paying dependents (``c_k > 0``),
    recounted from the graph with ``a_task_id`` forced to 1."""
    graph = state.graph
    paid = {}
    for dependent in graph.direct_dependents(task_id):
        d_deps = graph.direct_dependencies(dependent)
        if state.assigned(dependent) and all(
            f == task_id or state.assigned(f) for f in d_deps
        ):
            paid[len(d_deps)] = paid.get(len(d_deps), 0) + 1
    return paid


class TestPatchedPayCounts:
    """``_flip`` patches each filled pay-count memo by ±1 instead of
    dropping it, and drops only the memoised values whose inputs moved; the
    memos, the values read off them and the masked-value bound must match a
    fresh recount after every move.

    ``fast`` fills memos only for the drawn tasks and the masked reads, so
    flips meet tasks without a memo; ``twin`` has every memo and memoised
    value filled from the first move on.
    """

    @given(paired_states(), st.sets(st.integers(0, 7), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_counts_and_masked_values_after_every_move(self, scenario, prefill):
        fast, slow, moves, instance = scenario
        graph = instance.dependency_graph
        twin = GameState(
            instance, instance.tasks, list(fast.choice), fast.prev, alpha=fast.alpha
        )
        prefill &= set(graph)
        for worker_id, task_id in moves:
            for state in (fast, slow, twin):
                state.set_choice(worker_id, task_id)
            for state in (fast, twin):
                for t, paid in state._pay_counts.items():
                    assert {k: c for k, c in paid.items() if c} == _recount_pay(state, t)
                for t, value in state._value_cache.items():
                    assert value == slow.task_value(t, extra=t)
            for w, current in list(slow.choice.items()):
                if current is None or slow.nw[current] > 1 or current in slow.prev:
                    continue
                # ``w`` is the sole chooser: its withdrawal flips ``a_current``.
                slow.set_choice(w, None)
                for t in graph.influence_set(current):
                    expected = slow.task_value(t, extra=t)
                    assert fast._counted_value(t, current) == expected
                    assert twin._counted_value(t, current) == expected
                slow.set_choice(w, current)
            _assert_value_bounds(twin)
            for t in graph:
                if t in prefill:
                    fast.task_value(t, extra=t)
                twin.task_value(t, extra=t)


def _masked_reference_values(slow, graph):
    """``{(w, c, t): value}``: each sole chooser ``w`` of ``c``, and each
    ``t`` in ``c``'s influence set, valued in ``w``'s withdrawn view."""
    values = {}
    for w, current in list(slow.choice.items()):
        if current is None or slow.nw[current] > 1 or current in slow.prev:
            continue
        slow.set_choice(w, None)
        for t in graph.influence_set(current):
            values[(w, current, t)] = slow.task_value(t, extra=t)
        slow.set_choice(w, current)
    return values


def _assert_moved_as_reported(state, before, after, task_id):
    """A value that rose is reported raised, one that fell lowered, and one
    reported in neither set kept its value."""
    if after > before:
        assert task_id in state.raised
    elif after < before:
        assert task_id in state.lowered
    if task_id not in state.raised and task_id not in state.lowered:
        assert after == before


class TestMovedValueReport:
    """``set_choice`` reports which hypothetical values its flips raised
    and which they lowered, for every task with pay counts.

    The best-response loop probes the players of raised tasks and rescans
    the choosers of lowered ones; a value that moved without a report, or
    in the other direction, would let it skip a worker that should move.
    ``fast`` fills pay counts for the drawn tasks only, ``twin`` for all.
    """

    @given(paired_states(), st.sets(st.integers(0, 7), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_report_after_every_move(self, scenario, prefill):
        fast, slow, moves, instance = scenario
        graph = instance.dependency_graph
        twin = GameState(
            instance, instance.tasks, list(fast.choice), fast.prev, alpha=fast.alpha
        )
        prefill &= set(graph)
        for worker_id, task_id in moves:
            for t in graph:
                if t in prefill:
                    fast.task_value(t, extra=t)
                twin.task_value(t, extra=t)
            before = {t: slow.task_value(t, extra=t) for t in graph}
            masked_before = _masked_reference_values(slow, graph)
            filled = {state: set(state._pay_counts) for state in (fast, twin)}
            for state in (fast, slow, twin):
                state.set_choice(worker_id, task_id)
            after = {t: slow.task_value(t, extra=t) for t in graph}
            masked_after = _masked_reference_values(slow, graph)
            for state in (fast, twin):
                for t in filled[state]:
                    _assert_moved_as_reported(state, before[t], after[t], t)
                # A sole chooser's masked value moves with the global value
                # or not at all.
                for key, value in masked_after.items():
                    if key in masked_before and key[2] in filled[state]:
                        _assert_moved_as_reported(
                            state, masked_before[key], value, key[2]
                        )

    def test_report_reset_by_each_move(self, example1):
        state = GameState(example1, example1.tasks, (1, 2, 3), alpha=2.0)
        for t in state.graph:
            state.task_value(t, extra=t)
        state.set_choice(1, 1)
        assert state.raised
        state.set_choice(1, 1)  # no move
        assert not state.raised and not state.lowered


def build_open_instance(deps, n_workers=None):
    """Tasks ``0..n-1`` with the given dependency lists, taken as-is (unclosed);
    ``n_workers`` defaults to two more than the tasks."""
    skills = SkillUniverse(1)
    tasks = [
        Task(id=tid, location=(0.0, 0.0), start=0.0, wait=100.0, skill=0,
             dependencies=frozenset(task_deps))
        for tid, task_deps in enumerate(deps)
    ]
    workers = [
        Worker(id=w, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=1.0,
               max_distance=10.0, skills=frozenset({0}))
        for w in range(len(deps) + 2 if n_workers is None else n_workers)
    ]
    return ProblemInstance(workers=workers, tasks=tasks, skills=skills)


@st.composite
def open_dag_scripts(draw):
    """Arbitrary DAGs (each task picks earlier ids) plus a move script."""
    n_tasks = draw(st.integers(3, 8))
    deps = [
        sorted(draw(st.sets(st.integers(0, tid - 1), max_size=3))) if tid else []
        for tid in range(n_tasks)
    ]
    alpha = draw(st.floats(1.5, 20.0))
    prev = sorted(draw(st.sets(st.integers(0, n_tasks - 1), max_size=2)))
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_tasks + 1),
                st.one_of(st.none(), st.integers(0, n_tasks - 1)),
            ),
            max_size=25,
        )
    )
    return deps, alpha, prev, moves


class TestUnclosedDependencySets:
    """Eq. 3 gates on ``D_d`` as given, which need not be transitively closed.

    The generators only emit closed sets (``wire_dependencies``), where
    ``D_d`` equals ``ancestors(d)``.  Here a chain ``0 -> 1 -> 3`` with
    ``D_3 = {1, 2}`` leaves ``0`` an ancestor of ``3`` but not in ``D_3``:
    a worker alone on ``0`` who considers ``2`` must still collect ``3``'s
    dependency share.
    """

    @given(open_dag_scripts())
    @example(([[], [0], [], [1, 2]], 10.0, [], [(0, 0), (1, 1), (2, 3)]))
    @settings(max_examples=120, deadline=None)
    def test_candidate_utility_matches_withdrawn_reference(self, script):
        deps, alpha, prev, moves = script
        instance = build_open_instance(deps)
        graph = instance.dependency_graph
        assume(any(graph.ancestors(t) != graph.direct_dependencies(t) for t in graph))
        players = list(range(len(deps) + 2))
        fast = GameState(instance, instance.tasks, players, prev, alpha=alpha)
        slow = ReferenceGameState(instance, instance.tasks, players, prev, alpha=alpha)
        for worker_id, task_id in moves:
            fast.set_choice(worker_id, task_id)
            slow.set_choice(worker_id, task_id)
            for w in players:
                current = slow.choice[w]
                slow.set_choice(w, None)
                for candidate in range(len(deps)):
                    expected = slow.utility_of_choice(w, candidate)
                    assert fast.candidate_utility(w, candidate) == expected
                slow.set_choice(w, current)


class TestBestResponseConvergence:
    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_game_reaches_stable_profile(self, seed):
        from repro.algorithms.game import DASCGame
        from repro.simulation.platform import run_single_batch

        instance = build_instance(6, seed, 2)
        outcome = run_single_batch(instance, DASCGame(seed=seed, max_rounds=100))
        # converged well before the cap and produced a valid assignment
        assert outcome.stats["rounds"] < 100
        assert outcome.assignment.is_valid(instance, now=0.0)


def _unpruned_argmax(state, worker_id, options, eps):
    """The best-response loop over :meth:`GameState.candidate_utility`, no bounds."""
    current = state.choice[worker_id]
    best_task = current
    best = state.candidate_utility(worker_id, current) if current is not None else 0.0
    for candidate in options:
        if candidate == current:
            continue
        utility = state.candidate_utility(worker_id, candidate)
        if utility > best + eps:
            best_task, best = candidate, utility
    return best_task, best


def _assert_value_bounds(state):
    """Every memoised value is current, and every withdrawn-view value lies
    under the global value the pruning test stands in for it."""
    sole = [m for m, count in state.nw.items() if count == 1 and m not in state.prev]
    for t in state.graph:
        memo = state._value_cache.get(t)
        value = state._counted_value(t, None)
        if memo is not None:
            assert memo == value
        for m in sole:
            assert state._counted_value(t, m) <= value


def _replay_pruned_best_responses(instance, prev, alpha, moves):
    """Drive a move script; after each move pin ``best_response`` on one
    state to the unpruned argmax on a twin, and check the value bounds."""
    n_tasks = len(instance.tasks)
    players = list(range(len(instance.workers)))
    # A worker-dependent rotation, so option order varies between players.
    options = {
        w: [(w + k) % n_tasks for k in range(n_tasks)] for w in players
    }
    fast = GameState(instance, instance.tasks, players, prev, alpha=alpha)
    twin = GameState(instance, instance.tasks, players, prev, alpha=alpha)
    for worker_id, task_id in moves:
        fast.set_choice(worker_id, task_id)
        twin.set_choice(worker_id, task_id)
        for eps in (_EPS, TOLERANCE):
            for w in players:
                got = fast.best_response(w, options[w], eps)
                assert got == _unpruned_argmax(twin, w, options[w], eps)
                assert fast.choice[w] == twin.choice[w]
        _assert_value_bounds(fast)
    assert fast.evaluations == fast.cache_hits + fast.value_recomputes + fast.pruned


@st.composite
def near_tie_scripts(draw):
    """Layered DAGs where every dependent has the same ``|D_d|``, played
    from a profile with equal crowds, at the extreme ``alpha`` values."""
    n_roots = draw(st.integers(2, 4))
    width = draw(st.integers(1, n_roots))
    n_dependents = draw(st.integers(1, 5))
    deps = [[] for _ in range(n_roots)]
    for k in range(n_dependents):
        # Each dependent takes ``width`` consecutive roots (cyclically).
        deps.append(sorted({(k + j) % n_roots for j in range(width)}))
    n_tasks = len(deps)
    crowd = draw(st.integers(1, 2))
    # Equal crowds: workers ``0 .. crowd * n_tasks - 1`` cover every task
    # ``crowd`` times; the two spare workers start idle.
    opening = [(w, w % n_tasks) for w in range(crowd * n_tasks)]
    script = draw(
        st.lists(
            st.tuples(
                st.integers(0, crowd * n_tasks + 1),
                st.one_of(st.none(), st.integers(0, n_tasks - 1)),
            ),
            max_size=12,
        )
    )
    alpha = draw(st.sampled_from([1.0001, 1e6]))
    prev = sorted(draw(st.sets(st.integers(0, n_roots - 1), max_size=1)))
    return deps, crowd * n_tasks + 2, alpha, prev, opening + script


class TestPrunedBestResponse:
    """``GameState.best_response`` skips withdrawn-view values by an upper
    bound.

    Pruning must be exact: the returned task and float equal the argmax of
    :meth:`GameState.candidate_utility` over the same options, at the game's
    margin and at the equilibrium check's.  The bound it relies on is
    asserted directly: a withdrawn-view value lies under the global value,
    and a memoised global value equals a fresh one.
    """

    @given(paired_states())
    @settings(max_examples=80, deadline=None)
    def test_incremental_scenarios(self, scenario):
        fast, _, moves, instance = scenario
        _replay_pruned_best_responses(instance, fast.prev, fast.alpha, moves)

    @given(open_dag_scripts())
    @example(([[], [0], [], [1, 2]], 10.0, [], [(0, 0), (1, 1), (2, 3)]))
    @settings(max_examples=120, deadline=None)
    def test_unclosed_dependency_sets(self, script):
        deps, alpha, prev, moves = script
        instance = build_open_instance(deps)
        _replay_pruned_best_responses(instance, prev, alpha, moves)

    @given(near_tie_scripts())
    @example(([[], [], [0, 1], [0, 1]], 6, 1e6, [], [(0, 0), (1, 1), (2, 2), (3, 3)]))
    @example(([[], [], [0, 1], [0, 1]], 6, 1.0001, [], [(0, 0), (1, 1), (2, 2), (3, 3)]))
    @settings(max_examples=120, deadline=None)
    def test_near_ties(self, script):
        deps, n_workers, alpha, prev, moves = script
        instance = build_open_instance(deps, n_workers)
        _replay_pruned_best_responses(instance, prev, alpha, moves)


@st.composite
def rebuilt_instances(draw):
    """One DAG over widely spread ids, as two instances built differently.

    Both hold equal dependency sets, but the tasks come in two shuffled
    orders and each ``D_t`` is a frozenset filled in a different insertion
    order.  Ids are multiples of 1024, so they collide in every small hash
    table and CPython's frozenset order follows the insertion order.
    """
    n_tasks = draw(st.integers(2, 24))
    ids = sorted(1024 * k for k in draw(st.lists(
        st.integers(0, 1000), min_size=n_tasks, max_size=n_tasks, unique=True
    )))
    rng = random.Random(draw(st.integers(0, 10_000)))
    density = draw(st.floats(0.05, 0.6))
    deps = {
        tid: {ids[j] for j in range(i) if rng.random() < density}
        for i, tid in enumerate(ids)
    }
    if draw(st.booleans()):  # close every D_t, as the generators do
        for tid in ids:
            for dep in list(deps[tid]):
                deps[tid] |= deps[dep]
    skills = SkillUniverse(2)
    task_skill = {tid: rng.randrange(2) for tid in ids}
    workers = [
        Worker(id=w, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=1.0,
               max_distance=10.0, skills=frozenset(rng.sample([0, 1], rng.randint(1, 2))))
        for w in range(draw(st.integers(1, n_tasks + 3)))
    ]
    builds = []
    for _ in range(2):
        order = list(ids)
        rng.shuffle(order)
        tasks = []
        for tid in order:
            members = list(deps[tid])
            rng.shuffle(members)
            tasks.append(Task(id=tid, location=(0.0, 0.0), start=0.0, wait=100.0,
                              skill=task_skill[tid], dependencies=frozenset(members)))
        builds.append(ProblemInstance(workers=workers, tasks=tasks, skills=skills))
    return builds


class TestInputBuildOrder:
    """Graph answers and game decisions do not depend on how sets were built.

    Dependents ascend by id, so the game's Eq. 3 sums, and with them every
    argmax, read no frozenset iteration order.
    """

    @given(rebuilt_instances(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_two_builds_decide_alike(self, builds, seed):
        from repro.algorithms.game import DASCGame
        from repro.simulation.platform import run_single_batch

        first, second = (build.dependency_graph for build in builds)
        assert first.topological_order() == second.topological_order()
        for tid in first:
            assert first.direct_dependents(tid) == second.direct_dependents(tid)
            assert first.dependent_pairs(tid) == second.dependent_pairs(tid)
            assert first.influence_set(tid) == second.influence_set(tid)
            assert first.descendants(tid) == second.descendants(tid)
        one, two = (
            run_single_batch(build, DASCGame(seed=seed), now=0.0) for build in builds
        )
        assert sorted(one.assignment.pairs()) == sorted(two.assignment.pairs())
        assert one.stats == two.stats
