"""The task dependency DAG and associative task sets (Sections II-B, III-A).

``DependencyGraph`` stores, for every task id, its *direct* dependency set
and offers:

* acyclicity validation and a topological order;
* transitive closure (``ancestors``) and its dual (``descendants``, built
  on first call, as is ``depth``);
* the associative task sets ``tc_i = {t_i} ∪ closure(D_i)`` driving
  ``DASC_Greedy``;
* dependency-satisfaction tests against a set of already-assigned ids;
* each task's direct dependents as an ascending-id tuple
  (:meth:`direct_dependents`, :meth:`dependent_pairs`) and the Eq. 3
  *influence set* (:meth:`influence_set`) backing the incremental
  best-response engine of :mod:`repro.algorithms.utility`.

Ascending task id is the one order a reader may rely on: dependents come
out in it, and Kahn's queue visits them in it.  The iteration order of a
frozenset (``D_t``, the closure, descendants, the influence set) is not
part of the contract.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.exceptions import DascError


class CyclicDependencyError(DascError):
    """The dependency relation contains a cycle (forbidden by Section II-B)."""

    def __init__(self, cycle: List[int]) -> None:
        super().__init__(f"dependency cycle detected: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


class DependencyGraph:
    """An immutable DAG over task ids.

    Args:
        direct: mapping from task id to its direct dependency ids.  Every id
            referenced as a dependency must itself be a key (tasks with no
            dependencies map to an empty set).

    Raises:
        DascError: when a dependency references an unknown task id.
        CyclicDependencyError: when the relation is cyclic.
    """

    def __init__(self, direct: Mapping[int, Iterable[int]]) -> None:
        self._direct: Dict[int, FrozenSet[int]] = {
            tid: frozenset(deps) for tid, deps in direct.items()
        }
        for tid, deps in self._direct.items():
            missing = deps.difference(self._direct)
            if missing:
                raise DascError(
                    f"task {tid} depends on unknown task(s) {sorted(missing)}"
                )
        # Each task's direct dependents: a list, ascending because ``D_t`` is
        # inverted over the ids in ascending order; frozen into a tuple on
        # its first read.
        dependents: Dict[int, Sequence[int]] = {tid: [] for tid in self._direct}
        for tid in sorted(self._direct):
            for dep in self._direct[tid]:
                dependents[dep].append(tid)
        self._dependents = dependents
        # Kahn's queue: the pinned ``topological_order``, built on first
        # call unless the size order below fails and it is needed here.
        self._kahn: Optional[List[int]] = None
        order = self._size_order()
        if order is None:
            order = self._kahn_order()
        self._ancestors = self._close(order)
        # Built on first read: Greedy never reads these, and the game reads
        # only the tasks it visits.
        self._descendants: Optional[Dict[int, FrozenSet[int]]] = None
        self._depths: Optional[Dict[int, int]] = None
        self._dependent_pairs: Dict[int, tuple] = {}
        self._influence: Dict[int, FrozenSet[int]] = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_tasks(cls, tasks: Iterable) -> "DependencyGraph":
        """Build from objects exposing ``.id`` and ``.dependencies``."""
        return cls({t.id: t.dependencies for t in tasks})

    # -- basic queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._direct)

    def __contains__(self, tid: int) -> bool:
        return tid in self._direct

    def __iter__(self) -> Iterator[int]:
        return iter(self._direct)

    def direct_dependencies(self, tid: int) -> FrozenSet[int]:
        """The direct dependency set ``D_t``."""
        return self._direct[tid]

    def ancestors(self, tid: int) -> FrozenSet[int]:
        """Transitive closure of ``D_t`` (everything that must precede t).

        When ``D_t`` is already closed this is the very ``D_t`` object.  Its
        iteration order is unspecified: compare it as a set.
        """
        return self._ancestors[tid]

    def direct_dependents(self, tid: int) -> Tuple[int, ...]:
        """Tasks whose direct dependency set contains ``tid``, ascending."""
        found = self._dependents[tid]
        if type(found) is list:
            found = self._dependents[tid] = tuple(found)
        return found

    def descendants(self, tid: int) -> FrozenSet[int]:
        """Tasks transitively depending on ``tid`` (map built on first call)."""
        if self._descendants is None:
            out: Dict[int, Set[int]] = {tid: set() for tid in self._direct}
            for task, ancestors in self._ancestors.items():
                for anc in ancestors:
                    out[anc].add(task)
            self._descendants = {task: frozenset(vals) for task, vals in out.items()}
        return self._descendants[tid]

    def dependent_pairs(self, tid: int) -> tuple:
        """``(d, D_d)`` for each direct dependent ``d``, in ascending ``d``."""
        snap = self._dependent_pairs.get(tid)
        if snap is None:
            direct = self._direct
            snap = self._dependent_pairs[tid] = tuple(
                (dependent, direct[dependent]) for dependent in self.direct_dependents(tid)
            )
        return snap

    def influence_set(self, tid: int) -> FrozenSet[int]:
        """Tasks whose Eq. 3 value reads the assignment indicator ``a_tid``.

        ``task_value(t)`` reads ``a_f`` for ``f`` in ``D_t`` (the
        dependency gate), for each direct dependent ``d`` of ``t`` (its own
        indicator) and for every dependency of those dependents (their
        gates).  Inverting that read relation gives the set of tasks whose
        value can change when ``a_tid`` flips::

            influence(tid) = D_tid ∪ dependents(tid)
                             ∪ (∪_{d in dependents(tid)} D_d) \\ {tid}

        ``tid`` itself is excluded: a task's hypothetical value never reads
        its own indicator (``extra`` masks it).  Every value a flip moves
        lies in this O(degree) neighbourhood, and a worker alone on ``tid``
        values exactly these candidates in its withdrawn view.
        Every reader probes it or iterates it order-insensitively.
        """
        cached = self._influence.get(tid)
        if cached is None:
            direct = self._direct
            affected = set(direct[tid])
            for dependent in self.direct_dependents(tid):
                affected.add(dependent)
                affected.update(direct[dependent])
            affected.discard(tid)
            cached = self._influence[tid] = frozenset(affected)
        return cached

    def roots(self) -> List[int]:
        """Tasks with no dependencies, in id order."""
        return sorted(tid for tid, deps in self._direct.items() if not deps)

    def topological_order(self) -> List[int]:
        """Kahn's order: roots in id order, each task's dependents ascending."""
        return list(self._kahn_order())

    def associative_set(self, tid: int) -> FrozenSet[int]:
        """The associative task set ``tc_i = {t_i} ∪ closure(D_i)``."""
        return self._ancestors[tid] | {tid}

    def associative_sets(self) -> Dict[int, FrozenSet[int]]:
        """All associative task sets, keyed by the defining task id."""
        return {tid: self.associative_set(tid) for tid in self._direct}

    def satisfied(self, tid: int, assigned: AbstractSet[int]) -> bool:
        """Dependency constraint of Definition 3 for task ``tid``.

        True iff every *direct* dependency is in ``assigned``.  (With closed
        generators direct == transitive; the graph does not require closure,
        so this checks exactly the paper's ``prod_{t' in D_t} a_{t'} = 1``.)
        """
        return self._direct[tid] <= assigned

    def ready_tasks(self, assigned: AbstractSet[int]) -> List[int]:
        """Unassigned tasks whose dependency constraint currently holds."""
        return [
            tid
            for tid in self._direct
            if tid not in assigned and self.satisfied(tid, assigned)
        ]

    def depth(self, tid: int) -> int:
        """Length of the longest dependency chain below ``tid`` (roots = 0).

        The map is built on first call, in one pass over the topological
        order.
        """
        if self._depths is None:
            depths: Dict[int, int] = {}
            for task in self._kahn_order():
                deps = self._direct[task]
                depths[task] = max(depths[dep] for dep in deps) + 1 if deps else 0
            self._depths = depths
        return self._depths[tid]

    # -- internals --------------------------------------------------------------

    def _size_order(self) -> Optional[List[int]]:
        """Task ids by ascending ``len(D_t)`` if that order is topological.

        On a closed DAG ``d in D_t`` implies ``D_d < D_t``, so the order
        always is.  On any input a pass that succeeds proves acyclicity;
        ``None`` sends the caller to Kahn's queue.
        """
        direct = self._direct
        order = sorted(direct, key=lambda tid: len(direct[tid]))
        seen: Set[int] = set()
        for tid in order:
            if not direct[tid] <= seen:
                return None
            seen.add(tid)
        return order

    def _kahn_order(self) -> List[int]:
        """Kahn's queue over the ascending dependents (cached on first call)."""
        if self._kahn is None:
            indegree = {tid: len(deps) for tid, deps in self._direct.items()}
            queue = sorted(tid for tid, deg in indegree.items() if deg == 0)
            head = 0
            while head < len(queue):
                tid = queue[head]
                head += 1
                for nxt in self._dependents[tid]:
                    indegree[nxt] -= 1
                    if indegree[nxt] == 0:
                        queue.append(nxt)
            if len(queue) != len(self._direct):
                raise CyclicDependencyError(self._find_cycle())
            self._kahn = queue
        return self._kahn

    def _find_cycle(self) -> List[int]:
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[int, int] = {tid: WHITE for tid in self._direct}
        stack: List[int] = []

        def visit(tid: int) -> List[int] | None:
            color[tid] = GRAY
            stack.append(tid)
            for dep in self._direct[tid]:
                if color[dep] == GRAY:
                    return stack[stack.index(dep):] + [dep]
                if color[dep] == WHITE:
                    found = visit(dep)
                    if found is not None:
                        return found
            color[tid] = BLACK
            stack.pop()
            return None

        for tid in self._direct:
            if color[tid] == WHITE:
                found = visit(tid)
                if found is not None:
                    return found
        return []  # pragma: no cover — only reached if no cycle exists

    def _close(self, order: List[int]) -> Dict[int, FrozenSet[int]]:
        """Each task's closure, over a topological ``order``.

        ``D_t`` is closed when it holds every dependency's closure.  The
        check covers ``D_t`` greedily, widest closure first: a closure
        inside ``D_t`` also vouches for each of its members, whose own
        closures it contains.  A closed ``D_t`` is stored as its own
        closure; only an unclosed one is unioned.
        """
        closure: Dict[int, FrozenSet[int]] = {}
        width: Dict[int, int] = {}
        for tid in order:
            deps = self._direct[tid]
            uncovered = deps
            while uncovered:
                top = max(uncovered, key=width.__getitem__)
                if not closure[top] <= deps:
                    acc = set(deps)
                    acc.update(*map(closure.__getitem__, deps))
                    deps = frozenset(acc)
                    break
                uncovered = uncovered.difference(closure[top], (top,))
            closure[tid] = deps
            width[tid] = len(deps)
        return closure
