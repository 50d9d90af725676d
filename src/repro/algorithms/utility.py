"""Game state, the Eq. 3 utility and potential functions (Section IV).

The strategic game assigns each worker a strategy ``s_w`` (a feasible task).
A task's *value* is split so that every validly-assigned task contributes
exactly 1 to the summed utility:

* ``Utility_Self``: ``(alpha - 1) / alpha`` for a task with dependencies
  (gated on all of them being assigned), ``1`` for a root task;
* ``Utility_Dependency``: the remaining ``1 / alpha`` of a dependent task's
  value, split evenly over its ``|D_t|`` dependencies and paid to the
  workers choosing those dependencies.

Each task's value is shared equally among the ``nw_t`` workers currently
choosing it.  With no carry-over from previous batches this makes
``Sum(M) = sum_w U_w`` (the observation of Section IV-B), which the test
suite verifies.

Incremental evaluation
----------------------
:class:`GameState` is the *incremental* implementation driving the
best-response hot loop: it memoises each task's hypothetical value
``q(t | a_t = 1)`` and the unassigned-dependency counts behind the
``deps_satisfied`` indicator, maintains an O(1) task → workers contention
multimap, and invalidates only the O(degree)
:meth:`~repro.core.dependency.DependencyGraph.influence_set` neighbourhood
when an assignment indicator actually flips.  Every float it returns is
**bit-identical** to a from-scratch graph walk: both sum a task's
dependents in the one order the graph gives them,
:meth:`~repro.core.dependency.DependencyGraph.direct_dependents`'s
ascending tuple, with the same expressions, so argmax decisions — and
therefore whole game runs — cannot diverge.

:meth:`GameState.best_response` also skips walks that cannot change the
argmax.  Before walking a candidate's dependents it divides an upper bound
on the value by the crowd and compares it with the incumbent: the
memoised global value for a withdrawn-view candidate, else a static
ceiling (every term paid).  Each value is the in-order float sum of a
subset of its bound's non-negative terms, and IEEE addition and division
are monotone, so a candidate whose bound cannot beat the incumbent by the
margin cannot either; the pruned candidate is never walked and decisions
stay bit-identical.

The original walk-everything implementation lives on as the test suite's
``ReferenceGameState`` oracle (``tests/reference.py``), which the randomized
property suite pins this class against float-for-float.

Potentials
----------
``potential()`` is the harmonic-number potential
``Phi(S) = sum_t q(t) * H(nw_t)`` (``q(t)`` = the task's currently-realised
value, ``H`` the harmonic numbers).  For any best-response move that does not
flip an assignment indicator ``a_f`` (i.e. the origin task keeps at least one
worker and the target already has one), ``Delta U_w = Delta Phi`` exactly —
the exact-potential property of Theorem IV.1.  The formula printed in the
paper (implemented verbatim as :meth:`GameState.potential_paper` for
reference) does not reduce to an exact potential as typeset; the harmonic
form is the standard exact potential for this utility-sharing structure and
is what the convergence tests rely on.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.instance import ProblemInstance
from repro.core.task import Task


# Memoised prefix of the harmonic numbers; grown by left-to-right running
# sum so each H(n) is the same float the original per-call summation gave.
_HARMONIC: List[float] = [0.0]


def harmonic(n: int) -> float:
    """The n-th harmonic number ``H(n) = 1 + 1/2 + ... + 1/n``."""
    while len(_HARMONIC) <= n:
        _HARMONIC.append(_HARMONIC[-1] + 1.0 / len(_HARMONIC))
    return _HARMONIC[n]


class GameState:
    """Mutable strategy profile of the DA-SC game for one batch.

    Args:
        instance: the enclosing problem (dependency DAG and task lookups).
        tasks: the batch's open tasks.
        players: ids of the participating workers.
        previously_assigned: task ids matched in earlier batches — they count
            as assigned for every indicator ``a_f``.
        alpha: the normalisation parameter of Eq. 3 (must exceed 1).

    Counters (never fed back into any decision):

    * ``evaluations`` — candidate utilities requested
      (:meth:`candidate_utility` / :meth:`utility_of_choice` calls, and
      each candidate :meth:`best_response` weighs);
    * ``value_recomputes`` — hypothetical task values actually computed
      (cache misses plus masked withdrawn-view evaluations);
    * ``cache_hits`` — hypothetical values served from the memo;
    * ``pruned`` — candidates :meth:`best_response` ruled out by an upper
      bound, without a value walk.

    Within a best-response run ``evaluations == cache_hits +
    value_recomputes + pruned`` (pinned by the counter tests).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        tasks: Sequence[Task],
        players: Iterable[int],
        previously_assigned: AbstractSet[int] = frozenset(),
        alpha: float = 10.0,
    ) -> None:
        if not alpha > 1.0:
            raise ValueError(f"alpha must be > 1, got {alpha}")
        self.alpha = alpha
        self.graph = instance.dependency_graph
        self.batch_task_ids = {t.id for t in tasks}
        self.prev = frozenset(previously_assigned)
        self.choice: Dict[int, Optional[int]] = {w: None for w in players}
        self.nw: Dict[int, int] = {}
        #: task -> workers currently choosing it (the contention multimap
        #: behind O(1) ``workers_on`` / extraction).
        self._members: Dict[int, Set[int]] = {}
        # Same float the reference computes inline per call.
        self._self_share = (alpha - 1.0) / alpha
        #: task -> number of its direct dependencies currently unassigned
        #: (the memoised ``deps_satisfied`` indicator), built lazily and
        #: maintained by ``_flip``.
        self._unassigned_deps: Dict[int, int] = {}
        #: task -> memoised hypothetical value ``q(t | a_t = 1)``.
        self._value_cache: Dict[int, float] = {}
        #: task -> static upper bound on its Eq. 3 value (:meth:`_ceiling`).
        self._ceilings: Dict[int, float] = {}
        self.evaluations = 0
        self.value_recomputes = 0
        self.cache_hits = 0
        self.pruned = 0

    # -- profile mutation -----------------------------------------------------------

    def set_choice(self, worker_id: int, task_id: Optional[int]) -> None:
        """Move ``worker_id`` to ``task_id`` (None = withdraw)."""
        old = self.choice[worker_id]
        if old == task_id:
            return
        if old is not None:
            remaining = self.nw[old] - 1
            self._members[old].discard(worker_id)
            if remaining:
                self.nw[old] = remaining
            else:
                del self.nw[old]
                if old not in self.prev:
                    self._flip(old, became_assigned=False)
        if task_id is not None:
            count = self.nw.get(task_id, 0)
            self.nw[task_id] = count + 1
            members = self._members.get(task_id)
            if members is None:
                members = self._members[task_id] = set()
            members.add(worker_id)
            if count == 0 and task_id not in self.prev:
                self._flip(task_id, became_assigned=True)
        self.choice[worker_id] = task_id

    def _flip(self, task_id: int, became_assigned: bool) -> None:
        """Indicator ``a_task_id`` flipped: patch counts, drop stale values.

        Only the O(degree) influence neighbourhood is touched — the
        unassigned-dependency count of every direct dependent, and the
        memoised values of the tasks whose Eq. 3 formula reads the flipped
        indicator.
        """
        delta = -1 if became_assigned else 1
        graph = self.graph
        counts = self._unassigned_deps
        for dependent in graph.direct_dependents(task_id):
            if dependent in counts:
                counts[dependent] += delta
        cache = self._value_cache
        for affected in graph.influence_set(task_id):
            if affected in cache:
                del cache[affected]

    # -- indicators -------------------------------------------------------------------

    def assigned(self, task_id: int) -> bool:
        """``a_t``: the task is chosen by some worker or previously matched."""
        return self.nw.get(task_id, 0) > 0 or task_id in self.prev

    def _pending_deps(self, task_id: int) -> int:
        """Memoised count of ``task_id``'s currently-unassigned dependencies."""
        counts = self._unassigned_deps
        count = counts.get(task_id)
        if count is None:
            count = sum(
                1
                for dep in self.graph.direct_dependencies(task_id)
                if not self.assigned(dep)
            )
            counts[task_id] = count
        return count

    def deps_satisfied(self, task_id: int, extra: Optional[int] = None) -> bool:
        """``prod_{f in D_t} a_f = 1``, optionally counting ``extra`` as assigned."""
        if extra is None:
            return self._pending_deps(task_id) == 0
        return all(
            f == extra or self.assigned(f)
            for f in self.graph.direct_dependencies(task_id)
        )

    def fully_realised(self, task_id: int, extra: Optional[int] = None) -> bool:
        """``prod_{f in D_t ∪ {t}} a_f = 1`` with an optional hypothetical."""
        if not (task_id == extra or self.assigned(task_id)):
            return False
        return self.deps_satisfied(task_id, extra)

    # -- utilities ----------------------------------------------------------------------

    def task_value(self, task_id: int, extra: Optional[int] = None) -> float:
        """``q(t)``: the value currently realised at task ``t`` (Eq. 3 numerators).

        ``extra`` marks one task hypothetically assigned (used when
        evaluating a candidate move before committing it).  The hot
        ``extra == task_id`` form is served from the value memo; other
        forms recompute directly.
        """
        if extra == task_id and task_id is not None:
            return self._hypothetical_value(task_id)
        self.value_recomputes += 1
        return self._value_walk(task_id, extra)

    def _value_walk(self, task_id: int, extra: Optional[int]) -> float:
        """The reference computation: dependents summed in ascending id."""
        graph = self.graph
        deps = graph.direct_dependencies(task_id)
        if deps:
            value = self._self_share if self.deps_satisfied(task_id, extra) else 0.0
        else:
            value = 1.0
        alpha = self.alpha
        for dependent in graph.direct_dependents(task_id):
            d_size = len(graph.direct_dependencies(dependent))
            if self.fully_realised(dependent, extra):
                value += 1.0 / (alpha * d_size)
        return value

    def _hypothetical_value(self, task_id: int) -> float:
        """Memoised ``q(t | a_t = 1)`` — the Eq. 3 numerator of a candidate."""
        cache = self._value_cache
        value = cache.get(task_id)
        if value is not None:
            self.cache_hits += 1
            return value
        self.value_recomputes += 1
        value = cache[task_id] = self._counted_value(task_id, None)
        return value

    def _masked_value(self, task_id: int, masked: int) -> float:
        """``q(t | a_t = 1)`` with ``a_masked`` forced to 0 (withdrawn view).

        Used when the evaluating worker is the sole chooser of ``masked``:
        its withdrawal flips that one indicator, so candidates whose value
        reads it cannot come from the (global-view) memo.
        """
        self.value_recomputes += 1
        return self._counted_value(task_id, masked)

    def _counted_value(self, task_id: int, masked: Optional[int]) -> float:
        """``q(t | a_t = 1)`` read off the unassigned-dependency counts.

        With ``a_t`` forced to 1, a dependent ``d`` pays its share iff it is
        assigned and so is every other task in ``D_d``: its pending count is
        exactly ``[t unassigned]``, since ``t`` is the one pending
        dependency the hypothetical may cover.  ``masked`` (assigned in the
        global view, 0 in the withdrawn one) also disqualifies ``d ==
        masked`` and every ``d`` with ``masked`` in ``D_d``.  That test
        reads ``D_d`` itself, not its closure: the graph keeps dependency
        sets as given, and Eq. 3 gates on the direct ones.  Dependents are
        visited in ascending id (``dependent_pairs``), the order the full
        walk sums them in, with the reference share expression, so the sum
        is bit-identical to it.
        """
        graph = self.graph
        nw = self.nw
        prev = self.prev
        deps = graph.direct_dependencies(task_id)
        if deps:
            satisfied = self._pending_deps(task_id) == 0 and masked not in deps
            value = self._self_share if satisfied else 0.0
        else:
            value = 1.0
        alpha = self.alpha
        counts = self._unassigned_deps
        allowed = 0 if task_id in nw or task_id in prev else 1
        for dependent, d_deps in graph.dependent_pairs(task_id):
            if dependent not in nw and dependent not in prev:
                continue
            pending = counts.get(dependent)
            if pending is None:
                pending = self._pending_deps(dependent)
            if pending == allowed and dependent != masked and masked not in d_deps:
                value += 1.0 / (alpha * len(d_deps))
        return value

    def candidate_utility(self, worker_id: int, task_id: int) -> float:
        """``U_w(task_id, s̄_w)`` — no withdrawal required.

        Evaluates the candidate in the as-if-withdrawn view *without
        mutating the profile*: the view differs from the global state only
        when the worker is the sole chooser of its current task (that one
        indicator reads 0), which the masked path handles.  Keeping
        evaluation read-only is what lets the memo and the dirty-set
        scheduler survive a full best-response sweep untouched.
        """
        self.evaluations += 1
        nw = self.nw
        current = self.choice[worker_id]
        crowd = nw.get(task_id, 0) + 1
        if current is not None:
            if current == task_id:
                # A task's hypothetical value never reads its own indicator,
                # so the global memo is exact even for the sole chooser.
                return self._hypothetical_value(task_id) / (crowd - 1)
            if nw[current] == 1 and current not in self.prev:
                if task_id in self.graph.influence_set(current):
                    return self._masked_value(task_id, current) / crowd
        return self._hypothetical_value(task_id) / crowd

    def _ceiling(self, task_id: int) -> float:
        """Static upper bound on ``q(t | a_t = 1)``: every term paid.

        The start value plus every dependent's share, summed in ascending
        dependent id like every value walk.  Any value of ``t`` (global or
        masked) is the in-order sum of a subset of these non-negative terms
        from a start no greater, so under monotone round-to-nearest
        addition it cannot exceed this float.
        """
        ceiling = self._ceilings.get(task_id)
        if ceiling is None:
            graph = self.graph
            ceiling = self._self_share if graph.direct_dependencies(task_id) else 1.0
            alpha = self.alpha
            for _, d_deps in graph.dependent_pairs(task_id):
                ceiling += 1.0 / (alpha * len(d_deps))
            self._ceilings[task_id] = ceiling
        return ceiling

    def best_response(
        self, worker_id: int, options: Sequence[int], eps: float
    ) -> Tuple[Optional[int], float]:
        """``(best_task, best_utility)``: the argmax of :meth:`candidate_utility`.

        Starts from the committed strategy (utility 0 when idle) and takes a
        candidate only when it beats the incumbent by more than ``eps``, in
        ``options`` order — the same task and the same float as looping
        :meth:`candidate_utility` over ``options``.  Before walking a
        candidate's dependents it compares an upper bound on the value,
        divided by the crowd, with ``best + eps``: the memoised global value
        for a masked candidate (its terms are a subset of the global
        value's), :meth:`_ceiling` on a memo miss.  IEEE division is
        monotone, so a candidate whose bound fails the test cannot pass it
        either; it is counted as ``pruned`` and does not fill the memo.
        Read-only, like :meth:`candidate_utility`.
        """
        nw = self.nw
        cache = self._value_cache
        current = self.choice[worker_id]
        masked: FrozenSet[int] = frozenset()
        evaluations = hits = recomputes = pruned = 0
        if current is None:
            best_task, best = None, 0.0
        else:
            best_task, best = current, self.candidate_utility(worker_id, current)
            if nw[current] == 1 and current not in self.prev:
                masked = self.graph.influence_set(current)
        # A candidate must beat this float to move the argmax.
        floor = best + eps
        for candidate in options:
            if candidate == current:
                continue
            evaluations += 1
            crowd = nw.get(candidate, 0) + 1
            value = cache.get(candidate)
            view = current if candidate in masked else None
            if value is None or view is not None:
                # The fresh global value bounds the withdrawn-view one.
                bound = value if value is not None else self._ceiling(candidate)
                if bound / crowd <= floor:
                    pruned += 1
                    continue
                recomputes += 1
                value = self._counted_value(candidate, view)
                if view is None:
                    cache[candidate] = value
            else:
                hits += 1
            utility = value / crowd
            if utility > floor:
                best_task, best = candidate, utility
                floor = best + eps
        self.evaluations += evaluations
        self.cache_hits += hits
        self.value_recomputes += recomputes
        self.pruned += pruned
        return best_task, best

    def utility_of_choice(self, worker_id: int, task_id: int) -> float:
        """``U_w(s_w, s̄_w)`` if ``worker_id`` (currently withdrawn) picks ``task_id``.

        The caller must first ``set_choice(worker_id, None)`` so the counts
        describe the *other* players; this method then adds the worker
        hypothetically.  (:meth:`candidate_utility` is the withdrawal-free
        equivalent the incremental loop uses.)
        """
        if self.choice[worker_id] is not None:
            raise ValueError(
                f"worker {worker_id} must be withdrawn before evaluating candidates"
            )
        self.evaluations += 1
        crowd = self.nw.get(task_id, 0) + 1
        return self._hypothetical_value(task_id) / crowd

    def utility(self, worker_id: int) -> float:
        """``U_w`` under the worker's committed strategy (0 when idle)."""
        task_id = self.choice[worker_id]
        if task_id is None:
            return 0.0
        return self.task_value(task_id) / self.nw[task_id]

    def total_utility(self) -> float:
        """``U(S) = sum_w U_w`` — equals ``Sum(M)`` in the single-batch game."""
        return sum(self.utility(w) for w in self.choice)

    # -- potentials ------------------------------------------------------------------------

    def potential(self) -> float:
        """Harmonic exact potential ``Phi(S) = sum_t q(t) * H(nw_t)``.

        ``H(nw_t)`` is read straight off the memoised prefix (grown once
        when a count exceeds it) instead of through per-term :func:`harmonic`
        calls — same floats, the prefix *is* what ``harmonic`` returns.
        """
        prefix = _HARMONIC
        task_value = self.task_value
        total = 0.0
        for tid, count in self.nw.items():
            if count >= len(prefix):
                harmonic(count)
            total += task_value(tid) * prefix[count]
        return total

    def potential_paper(self) -> float:
        """The paper's printed potential, after its own simplification step.

        ``Phi(S) = - sum_{t in ∪S_w} prod_{f in D_t ∪ {t}} a_f / (nw_t + 1)``
        (Lemma IV.3 reduces the double sum to this single-sum form).  Kept
        verbatim for comparison; see the module docstring for why the
        harmonic form is used by the analysis instead.
        """
        return -sum(
            1.0 / (count + 1) if self.fully_realised(tid) else 0.0
            for tid, count in self.nw.items()
        )

    # -- introspection ----------------------------------------------------------------------

    def chosen_tasks(self) -> List[int]:
        """Tasks currently chosen by at least one worker, sorted."""
        return sorted(self.nw)

    def workers_on(self, task_id: int) -> List[int]:
        """Workers whose strategy is ``task_id``, sorted for determinism."""
        return sorted(self._members.get(task_id, ()))

