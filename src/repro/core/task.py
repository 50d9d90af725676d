"""Dependency-aware spatial tasks (Definition 2).

A task ``t = <l_t, s_t, w_t, rs_t, D_t>`` appears at location ``l_t`` at
timestamp ``s_t``, must be *started* within ``w_t`` time, requires exactly one
skill ``rs_t`` from one worker, and may only be conducted once every task in
its dependency set ``D_t`` is assigned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import FrozenSet, Tuple

from repro.core.worker import negative_field_error, planar_location

Point = Tuple[float, float]


@dataclass(frozen=True)
class Task:
    """An immutable task record.

    Attributes:
        id: unique task identifier within an instance.
        location: task location ``l_t``.
        start: appearance timestamp ``s_t``.
        wait: validity window ``w_t``; service must start by ``start + wait``.
        skill: the single required skill ``rs_t``.
        dependencies: ids of the tasks in ``D_t``.  Generators emit
            transitively-closed sets (if ``a`` depends on ``b`` and ``b`` on
            ``c`` then ``a`` lists ``c`` too); ``DependencyGraph`` re-closes
            untrusted input.
        duration: service time once a worker starts (an extension knob used
            by the multi-batch simulator; the paper's model corresponds to
            ``duration = 0``).
    """

    id: int
    location: Point
    start: float
    wait: float
    skill: int
    dependencies: FrozenSet[int] = field(default_factory=frozenset)
    duration: float = 0.0

    def __post_init__(self) -> None:
        location = planar_location(f"task {self.id}", self.location)
        # ``not x >= 0`` also catches NaN, which every ordered comparison
        # answers False; +inf wait stays valid ("never expires").
        if not isfinite(self.start):
            raise ValueError(f"task {self.id}: non-finite start {self.start}")
        if not self.wait >= 0:
            raise negative_field_error(f"task {self.id}", "waiting time", self.wait)
        if not self.duration >= 0:
            raise negative_field_error(f"task {self.id}", "duration", self.duration)
        if self.id in self.dependencies:
            raise ValueError(f"task {self.id} depends on itself")
        object.__setattr__(self, "dependencies", frozenset(self.dependencies))
        object.__setattr__(self, "location", location)

    @property
    def deadline(self) -> float:
        """The latest service start time: ``s_t + w_t``."""
        return self.start + self.wait

    @property
    def is_root(self) -> bool:
        """Whether the task has no dependencies (``D_t`` empty)."""
        return not self.dependencies

    def active_at(self, now: float) -> bool:
        """Whether the task can still be started at time ``now``."""
        return self.start <= now <= self.deadline
