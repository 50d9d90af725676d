"""Heterogeneous workers (Definition 1).

A worker ``w = <l_w, s_w, w_w, v_w, d_w, WS_w>`` appears at location ``l_w``
at timestamp ``s_w``, waits at most ``w_w`` time for an assignment, moves at
velocity ``v_w`` with maximum total moving distance ``d_w`` and practises the
skill set ``WS_w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import FrozenSet, Iterable, Tuple

Point = Tuple[float, float]


def negative_field_error(owner: str, name: str, value: float) -> ValueError:
    """The error for a field that must be ``>= 0`` but is negative or NaN."""
    if value != value:
        return ValueError(f"{owner}: {name} is NaN")
    return ValueError(f"{owner}: negative {name} {value}")


def planar_location(owner: str, location) -> Point:
    """``location`` as a float pair; rejects other lengths and non-finite values."""
    if len(location) != 2:
        raise ValueError(
            f"{owner}: location needs exactly two coordinates, got {tuple(location)}"
        )
    point = (float(location[0]), float(location[1]))
    if not (isfinite(point[0]) and isfinite(point[1])):
        raise ValueError(f"{owner}: non-finite location {point}")
    return point


@dataclass(frozen=True)
class Worker:
    """An immutable worker record.

    Attributes:
        id: unique worker identifier within an instance.
        location: initial location ``l_w``.
        start: appearance timestamp ``s_w``.
        wait: maximum waiting time ``w_w``; the worker leaves at
            ``start + wait`` if unassigned.
        velocity: moving speed ``v_w`` (distance units per time unit).
        max_distance: maximum moving distance ``d_w``.
        skills: the skill set ``WS_w`` (frozenset of skill ids).
    """

    id: int
    location: Point
    start: float
    wait: float
    velocity: float
    max_distance: float
    skills: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        location = planar_location(f"worker {self.id}", self.location)
        # ``not x >= 0`` also catches NaN, which every ordered comparison
        # answers False; +inf wait / max_distance stay valid ("unbounded").
        if not isfinite(self.start):
            raise ValueError(f"worker {self.id}: non-finite start {self.start}")
        if not self.wait >= 0:
            raise negative_field_error(f"worker {self.id}", "waiting time", self.wait)
        if not self.velocity >= 0:
            raise negative_field_error(f"worker {self.id}", "velocity", self.velocity)
        if not self.max_distance >= 0:
            raise negative_field_error(
                f"worker {self.id}", "max moving distance", self.max_distance
            )
        object.__setattr__(self, "skills", frozenset(self.skills))
        object.__setattr__(self, "location", location)

    @property
    def deadline(self) -> float:
        """The last instant the worker accepts an assignment: ``s_w + w_w``."""
        return self.start + self.wait

    def has_skill(self, skill: int) -> bool:
        return skill in self.skills

    def has_any_skill(self, skills: Iterable[int]) -> bool:
        return any(s in self.skills for s in skills)

    def active_at(self, now: float) -> bool:
        """Whether the worker is on the platform at time ``now``."""
        return self.start <= now <= self.deadline

    def relocated(self, location: Point, now: float, travelled: float = 0.0) -> "Worker":
        """A copy of the worker as it exists after moving.

        Used by the multi-batch simulator when a worker finishes a task and
        re-enters the pool at the task location with a reduced distance
        budget.

        Args:
            location: the worker's new position.
            now: the new appearance timestamp (completion time of its task).
            travelled: distance consumed so far, subtracted from the budget.
        """
        remaining = max(0.0, self.max_distance - travelled)
        return Worker(
            id=self.id,
            location=location,
            start=now,
            wait=max(0.0, self.deadline - now) if self.deadline > now else 0.0,
            velocity=self.velocity,
            max_distance=remaining,
            skills=self.skills,
        )
