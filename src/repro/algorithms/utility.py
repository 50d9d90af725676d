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
A hypothetical value ``q(t | a_t = 1)`` is ``t``'s own share plus
``1 / (alpha * |D_d|)`` for each paying dependent ``d``, so it depends only
on the integer counts ``c_k(t)`` of paying dependents with ``|D_d| = k``.
:func:`value_from_counts` turns counts into a float with one fixed formula
(``c_k / (alpha * k)`` added in ascending ``k``).

:class:`GameState` is the *incremental* implementation driving the
best-response hot loop.  It keeps, per task, the pay counts (filled by one
dependent walk on first read), the memoised value read off them, and the
unassigned-dependency count behind the ``deps_satisfied`` indicator, plus
an O(1) task → workers contention multimap.  When an assignment indicator
flips it moves the affected counts by one, inside the O(degree)
:meth:`~repro.core.dependency.DependencyGraph.influence_set`
neighbourhood, and drops only the memoised values whose counts or gate
moved.  Each move reports those tasks by direction
(:attr:`GameState.raised`, :attr:`GameState.lowered`); the best-response
loop of :mod:`repro.algorithms.game` decides whom to re-score from them.
Every float it returns is **bit-identical** to a from-scratch
graph walk because both run the same formula over the same integers,
whatever order the dependents were counted in, so argmax decisions — and
therefore whole game runs — cannot diverge.

:meth:`GameState.best_response` also skips withdrawn-view values that
cannot change the argmax.  Before subtracting a candidate's masked
readers it divides the candidate's global value by the crowd and compares
it with the incumbent.  The masked value runs the formula over counts no
larger, and IEEE division and addition are monotone, so a candidate whose
global value cannot beat the incumbent by the margin cannot either; the
pruned candidate's masked value is never computed and decisions stay
bit-identical.

The original walk-everything implementation lives on as the test suite's
``ReferenceGameState`` oracle (``tests/reference.py``): it recounts from
the graph on every call and shares only :func:`value_from_counts`.  The
randomized property suite pins this class against it float-for-float.

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

import math
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
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

_NOBODY: FrozenSet[int] = frozenset()


def harmonic(n: int) -> float:
    """The n-th harmonic number ``H(n) = 1 + 1/2 + ... + 1/n``."""
    while len(_HARMONIC) <= n:
        _HARMONIC.append(_HARMONIC[-1] + 1.0 / len(_HARMONIC))
    return _HARMONIC[n]


def value_from_counts(start: float, alpha: float, paid: Mapping[int, int]) -> float:
    """An Eq. 3 value from its paying dependents, counted per ``|D_d|``.

    ``paid`` maps ``k`` to ``c_k``: ``c_k`` dependents with ``|D_d| = k``
    pay ``1 / (alpha * k)`` each.  The one float formula for every value,
    here and in the reference: ``start``, then ``c_k / (alpha * k)`` added
    per ``k`` in ascending order.  It reads only the integers, so a value
    does not depend on the order its dependents were visited or counted in,
    and it is monotone in each ``c_k``.
    """
    value = start
    for k in sorted(paid) if len(paid) > 1 else paid:
        count = paid[k]
        if count:
            value += count / (alpha * k)
    return value


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
    * ``value_recomputes`` — evaluations that walked a task's dependents:
      first fills of its pay counts, and masked withdrawn-view evaluations
      (each scans the dependents that read the masked indicator);
    * ``cache_hits`` — evaluations served without a walk: from the value
      memo, or read off pay counts that flips kept current;
    * ``pruned`` — withdrawn-view candidates :meth:`best_response` ruled
      out by their global value, without a walk.

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
        if not (math.isfinite(alpha) and alpha > 1.0):
            raise ValueError(f"alpha must be finite and > 1, got {alpha}")
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
        #: task -> ``{k: c_k}``, its paying dependents with ``|D_d| = k``
        #: when ``a_t`` is forced to 1: filled by one dependent walk on
        #: first read, then patched by ``_flip``.
        self._pay_counts: Dict[int, Dict[int, int]] = {}
        #: task -> memoised hypothetical value ``q(t | a_t = 1)``.
        self._value_cache: Dict[int, float] = {}
        #: Tasks whose hypothetical value the last :meth:`set_choice` moved,
        #: by direction (see :meth:`_flip`).
        self.raised: Set[int] = set()
        self.lowered: Set[int] = set()
        self.evaluations = 0
        self.value_recomputes = 0
        self.cache_hits = 0
        self.pruned = 0

    # -- profile mutation -----------------------------------------------------------

    def set_choice(self, worker_id: int, task_id: Optional[int]) -> None:
        """Move ``worker_id`` to ``task_id`` (None = withdraw).

        Afterwards :attr:`raised` and :attr:`lowered` hold the tasks whose
        hypothetical value this move changed (see :meth:`_flip`).
        """
        if self.raised:
            self.raised.clear()
        if self.lowered:
            self.lowered.clear()
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

        A memoised value is ``t``'s gate share plus the formula over its pay
        counts, so it goes stale exactly when one of those moves.  The flip
        moves each direct dependent's pending count by one, and that
        dependent's gate share changes when the count crosses 0.  The pay
        counts move by one where a pay
        decision read the flipped indicator: a dependent ``d`` pays a reader
        ``t`` in ``D_d`` (``a_t`` forced to 1) iff ``a_d`` and every task of
        ``D_d \\ {t}`` is assigned.  So the flip changes ``task_id``'s own pay
        to each ``t`` in its ``D`` whose other dependencies are assigned,
        and each assigned dependent ``d``'s pay to each ``t`` in ``D_d \\
        {task_id}`` once the rest of ``D_d`` is assigned.  All of it lies in
        :meth:`~repro.core.dependency.DependencyGraph.influence_set`.  Only
        tasks with pay counts have memoised values, so with none filled
        there is nothing to patch or drop.

        Every task whose value moved is recorded, memoised or not: in
        :attr:`raised` when ``a_task_id`` became 1, in :attr:`lowered` when
        it became 0.  A value is monotone in its pay counts and its gate
        (:func:`value_from_counts` adds nonnegative terms, and IEEE division
        and addition are monotone), and a flip to 1 only raises both, so
        the direction is exact.  A masked value reads a subset of the same
        counts, so it moves with the global value or not at all.
        """
        graph = self.graph
        delta = -1 if became_assigned else 1
        counts = self._unassigned_deps
        memo = self._pay_counts
        if not memo:
            for dependent in graph.direct_dependents(task_id):
                if dependent in counts:
                    counts[dependent] += delta
            return
        cache = self._value_cache
        moved = self.raised if became_assigned else self.lowered
        deps = graph.direct_dependencies(task_id)
        if not memo.keys().isdisjoint(deps):
            self._patch_payer(task_id, deps, None, 0, -delta)
        nw = self.nw
        prev = self.prev
        # With ``a_task_id`` now 0 a dependent's pending count includes it,
        # and the rule asks about the rest of ``D_d``.
        offset = 0 if became_assigned else 1
        for dependent, d_deps in graph.dependent_pairs(task_id):
            pending = counts.get(dependent)
            if pending is not None:
                counts[dependent] = pending + delta
                if not pending or pending == -delta:
                    # The gate crossed 0.
                    cache.pop(dependent, None)
                    moved.add(dependent)
                if pending + delta - offset > 1:
                    # Two or more of the rest of ``D_d`` pending: no pay moved.
                    continue
            if (dependent in nw or dependent in prev) and not memo.keys().isdisjoint(
                d_deps
            ):
                self._patch_payer(dependent, d_deps, task_id, offset, -delta)

    def _patch_payer(
        self,
        payer: int,
        deps: FrozenSet[int],
        skip: Optional[int],
        offset: int,
        sign: int,
    ) -> None:
        """Move by ``sign`` the counts of the readers in ``deps`` (but
        ``skip``) that ``payer`` pays, if the rest of ``deps`` is assigned,
        and drop their memoised values.

        ``offset`` is subtracted from ``payer``'s pending count to leave
        ``skip`` out of it.  Readers without pay counts are left alone; the
        others are recorded as raised (``sign`` 1) or lowered (-1).
        """
        missing = self._pending_deps(payer) - offset
        if missing > 1:
            return
        memo = self._pay_counts
        cache = self._value_cache
        moved = self.raised if sign > 0 else self.lowered
        nw = self.nw
        prev = self.prev
        k = len(deps)
        for t in deps:
            if t == skip:
                continue
            if missing and (t in nw or t in prev):
                # One task of ``deps`` is pending: only that one is paid.
                continue
            paid = memo.get(t)
            if paid is not None:
                paid[k] = paid.get(k, 0) + sign
                cache.pop(t, None)
                moved.add(t)
            if missing:
                return

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
        forms recount directly.
        """
        if extra == task_id and task_id is not None:
            return self._hypothetical_value(task_id)
        self.value_recomputes += 1
        return self._value_walk(task_id, extra)

    def _value_walk(self, task_id: int, extra: Optional[int]) -> float:
        """The reference computation: realised dependents counted per size,
        for values the memo does not hold (``extra`` not ``task_id``)."""
        graph = self.graph
        if graph.direct_dependencies(task_id):
            start = self._self_share if self.deps_satisfied(task_id, extra) else 0.0
        else:
            start = 1.0
        paid: Dict[int, int] = {}
        for dependent, d_deps in graph.dependent_pairs(task_id):
            if self.fully_realised(dependent, extra):
                k = len(d_deps)
                paid[k] = paid.get(k, 0) + 1
        return value_from_counts(start, self.alpha, paid)

    def _hypothetical_value(self, task_id: int) -> float:
        """Memoised ``q(t | a_t = 1)`` — the Eq. 3 numerator of a candidate."""
        cache = self._value_cache
        value = cache.get(task_id)
        if value is not None:
            self.cache_hits += 1
            return value
        if task_id in self._pay_counts:
            self.cache_hits += 1
        else:
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

    def _fill_pay_counts(self, task_id: int) -> Dict[int, int]:
        """Count ``task_id``'s paying dependents per ``|D_d|``: one walk.

        With ``a_t`` forced to 1, a dependent ``d`` pays its share iff it is
        assigned and so is every other task in ``D_d``: its pending count is
        exactly ``[t unassigned]``, since ``t`` is the one pending
        dependency the hypothetical may cover.  :meth:`_flip` keeps the
        counts current.
        """
        graph = self.graph
        nw = self.nw
        prev = self.prev
        pending_counts = self._unassigned_deps
        paid: Dict[int, int] = {}
        allowed = 0 if task_id in nw or task_id in prev else 1
        for dependent, d_deps in graph.dependent_pairs(task_id):
            if dependent not in nw and dependent not in prev:
                continue
            pending = pending_counts.get(dependent)
            if pending is None:
                pending = self._pending_deps(dependent)
            if pending == allowed:
                k = len(d_deps)
                paid[k] = paid.get(k, 0) + 1
        self._pay_counts[task_id] = paid
        return paid

    def _masked_pay_counts(
        self, task_id: int, paid: Dict[int, int], masked: int
    ) -> Dict[int, int]:
        """``paid`` less the paying dependents that read ``a_masked``.

        A dependent ``d`` reads it when ``d == masked`` or ``masked`` is in
        ``D_d`` itself, not its closure: the graph keeps dependency sets as
        given, and Eq. 3 gates on the direct ones.  The readers are found
        by walking whichever is shorter, ``task_id``'s dependents or
        ``masked``'s.
        """
        graph = self.graph
        pairs = graph.dependent_pairs(task_id)
        masked_pairs = graph.dependent_pairs(masked)
        if len(masked_pairs) < len(pairs):
            readers = [pair for pair in masked_pairs if task_id in pair[1]]
            masked_deps = graph.direct_dependencies(masked)
            if task_id in masked_deps:
                readers.append((masked, masked_deps))
        else:
            readers = [pair for pair in pairs if pair[0] == masked or masked in pair[1]]
        nw = self.nw
        prev = self.prev
        allowed = 0 if task_id in nw or task_id in prev else 1
        out = paid
        for dependent, d_deps in readers:
            if (dependent in nw or dependent in prev) and (
                self._pending_deps(dependent) == allowed
            ):
                if out is paid:
                    out = dict(paid)
                out[len(d_deps)] -= 1
        return out

    def _counted_value(self, task_id: int, masked: Optional[int]) -> float:
        """``q(t | a_t = 1)`` read off the pay counts, with ``a_masked`` 0.

        Fills the count memo on first read.  ``masked`` (assigned in the
        global view, 0 in the withdrawn one) also fails ``t``'s own gate
        when it is in ``D_t``.  Bit-identity with the reference rests on the
        shared count formula, :func:`value_from_counts`: both read the same
        integers, whatever order the dependents were counted in.
        """
        paid = self._pay_counts.get(task_id)
        if paid is None:
            paid = self._fill_pay_counts(task_id)
        deps = self.graph.direct_dependencies(task_id)
        if deps:
            satisfied = self._pending_deps(task_id) == 0 and masked not in deps
            start = self._self_share if satisfied else 0.0
        else:
            start = 1.0
        if not paid:
            return start
        if masked is not None:
            paid = self._masked_pay_counts(task_id, paid, masked)
        return value_from_counts(start, self.alpha, paid)

    def candidate_utility(self, worker_id: int, task_id: int) -> float:
        """``U_w(task_id, s̄_w)`` — no withdrawal required.

        Evaluates the candidate in the as-if-withdrawn view *without
        mutating the profile*: the view differs from the global state only
        when the worker is the sole chooser of its current task (that one
        indicator reads 0), which the masked path handles.  Keeping
        evaluation read-only is what lets the memo and the best-response
        marking survive a full best-response sweep untouched.
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

    def best_response(
        self, worker_id: int, options: Sequence[int], eps: float
    ) -> Tuple[Optional[int], float]:
        """``(best_task, best_utility)``: the argmax of :meth:`candidate_utility`.

        Starts from the committed strategy (utility 0 when idle) and takes a
        candidate only when it beats the incumbent by more than ``eps``, in
        ``options`` order — the same task and the same float as looping
        :meth:`candidate_utility` over ``options``.  Before computing a
        masked candidate's value it compares its global value (an upper
        bound: its counts are no smaller), divided by the crowd, with
        ``best + eps``.  IEEE division is monotone, so a candidate whose
        bound fails the test cannot pass it either; it is counted as
        ``pruned``, or as a recompute when reading its global value filled
        its pay counts.  Read-only, like :meth:`candidate_utility`.
        """
        nw = self.nw
        cache = self._value_cache
        pay_counts = self._pay_counts
        current = self.choice[worker_id]
        masked: FrozenSet[int] = frozenset()
        skipped = recomputes = pruned = 0
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
                skipped += 1
                continue
            crowd = nw.get(candidate, 0) + 1
            value = cache.get(candidate)
            if value is None or candidate in masked:
                filled = value is None and candidate not in pay_counts
                if value is None:
                    value = cache[candidate] = self._counted_value(candidate, None)
                if candidate in masked:
                    # The global value bounds the withdrawn-view one.
                    if value / crowd <= floor:
                        if filled:
                            recomputes += 1
                        else:
                            pruned += 1
                        continue
                    recomputes += 1
                    value = self._counted_value(candidate, current)
                elif filled:
                    recomputes += 1
            utility = value / crowd
            if utility > floor:
                best_task, best = candidate, utility
                floor = best + eps
        # Every other candidate was a hit: its value came from the memo or
        # from the pay counts, without a walk.
        evaluations = len(options) - skipped
        self.evaluations += evaluations
        self.cache_hits += evaluations - recomputes - pruned
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

    def choosers(self, task_id: int) -> AbstractSet[int]:
        """Workers whose strategy is ``task_id``, unsorted (do not mutate)."""
        return self._members.get(task_id, _NOBODY)

