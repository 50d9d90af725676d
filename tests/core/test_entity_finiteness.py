"""Workers and tasks reject NaN, non-finite and non-planar coordinates at construction.

Every ordered comparison with NaN is False, so a NaN field would otherwise
slip past the ``< 0`` checks and silently read as "infeasible" downstream.
"""

import math

import pytest

from repro.core.task import Task
from repro.core.worker import Worker

NAN = math.nan
INF = math.inf

WORKER = dict(
    id=7, location=(0.0, 0.0), start=0.0, wait=5.0, velocity=1.0, max_distance=8.0
)
TASK = dict(id=9, location=(1.0, 1.0), start=0.0, wait=5.0, skill=0, duration=1.0)


def _worker(**overrides):
    return Worker(**dict(WORKER, **overrides))


def _task(**overrides):
    return Task(**dict(TASK, **overrides))


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"location": (NAN, 0.0)}, "location"),
        ({"location": (0.0, NAN)}, "location"),
        ({"location": (INF, 0.0)}, "location"),
        ({"location": (0.0, -INF)}, "location"),
        ({"start": NAN}, "start"),
        ({"start": INF}, "start"),
        ({"start": -INF}, "start"),
        ({"wait": NAN}, "waiting time"),
        ({"velocity": NAN}, "velocity"),
        ({"max_distance": NAN}, "max moving distance"),
        ({"location": (0, 0, 7)}, "location"),
        ({"location": (3,)}, "location"),
    ],
)
def test_worker_rejects_non_finite(overrides, field):
    with pytest.raises(ValueError, match=f"worker 7: .*{field}"):
        _worker(**overrides)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"location": (NAN, 0.0)}, "location"),
        ({"location": (0.0, INF)}, "location"),
        ({"location": (-INF, 0.0)}, "location"),
        ({"start": NAN}, "start"),
        ({"start": INF}, "start"),
        ({"start": -INF}, "start"),
        ({"wait": NAN}, "waiting time"),
        ({"duration": NAN}, "duration"),
        ({"location": (0, 0, 7)}, "location"),
        ({"location": (3,)}, "location"),
    ],
)
def test_task_rejects_non_finite(overrides, field):
    with pytest.raises(ValueError, match=f"task 9: .*{field}"):
        _task(**overrides)


def test_nan_error_says_nan():
    with pytest.raises(ValueError, match="worker 7: velocity is NaN"):
        _worker(velocity=NAN)
    with pytest.raises(ValueError, match="task 9: waiting time is NaN"):
        _task(wait=NAN)


@pytest.mark.parametrize(
    "overrides", [{"velocity": 0.0}, {"wait": INF}, {"max_distance": INF}]
)
def test_worker_keeps_zero_velocity_and_unbounded_limits(overrides):
    worker = _worker(**overrides)
    for key, value in overrides.items():
        assert getattr(worker, key) == value


def test_task_keeps_unbounded_wait():
    assert _task(wait=INF).deadline == INF
