"""The benchmark's workloads: seeded record generators plus run settings.

A workload turns a seed into plain records (worker and task dataclasses and
the skill universe's size and names) with :mod:`repro.datagen`.  The
program under test never sees the seed: every measured run rebuilds a fresh
:class:`~repro.core.instance.ProblemInstance` from the records, so no cache
survives from one run to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.distributions import Range
from repro.datagen.meetup import MeetupLikeConfig, generate_meetup_like
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.algorithms.registry import APPROACH_NAMES


@dataclass(frozen=True)
class Records:
    """Generated inputs, detached from any instance object."""

    workers: Tuple[Worker, ...]
    tasks: Tuple[Task, ...]
    skill_names: Tuple[str, ...]

    def build_instance(self) -> ProblemInstance:
        """A fresh instance over the records (validated by its constructor)."""
        skills = SkillUniverse(len(self.skill_names), list(self.skill_names))
        return ProblemInstance(list(self.workers), list(self.tasks), skills)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the name given on the command line.
        why: one line on what the workload stresses.
        approaches: allocators run back to back in one measured run.
        batch_interval: the platform's batch interval.
        generate: ``(seed, scale) -> ProblemInstance`` from repro.datagen;
            ``scale`` < 1 shrinks the population for smoke tests.
        instances: independent instances per seed; every approach runs on
            each, so one measured run sums over them.
    """

    name: str
    why: str
    approaches: Tuple[str, ...]
    batch_interval: float
    generate: Callable[[int, float], ProblemInstance]
    instances: int = 1

    def records(self, seed: int, scale: float = 1.0) -> Tuple[Records, ...]:
        """The workload's inputs: ``instances`` record sets drawn from
        consecutive sub-seeds ``seed * instances + k``."""
        out = []
        for k in range(self.instances):
            instance = self.generate(seed * self.instances + k, scale)
            out.append(
                Records(
                    tuple(instance.workers),
                    tuple(instance.tasks),
                    tuple(instance.skills.names),
                )
            )
        return tuple(out)


def _synth_default(seed: int, scale: float) -> ProblemInstance:
    return generate_synthetic(SyntheticConfig(seed=seed).scaled(0.5 * scale))


def _burst(seed: int, scale: float) -> ProblemInstance:
    rush = replace(
        SyntheticConfig(seed=seed),
        start_time=Range(0.0, 1.0),
        waiting_time=Range(25.0, 35.0),
    )
    return generate_synthetic(rush.scaled(0.1 * scale))


def _meetup(seed: int, scale: float) -> ProblemInstance:
    config = MeetupLikeConfig(seed=seed)
    return generate_meetup_like(config if scale == 1.0 else config.scaled(scale))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "synth_default",
            "four Table V instances at 0.5 scale (2500 x 2500), Greedy: incremental "
            "feasibility syncs dominate, so engine changes show and game changes cannot",
            ("Greedy",),
            5.0,
            _synth_default,
            instances=4,
        ),
        Workload(
            "burst_game",
            "sixteen rushes of 500 x 500 (Table V at 0.1 scale, every start in [0, 1]), "
            "Game: each one big best-response game after one bulk full build",
            ("Game",),
            5.0,
            _burst,
            instances=16,
        ),
        Workload(
            "meetup_six",
            "Meetup-like Table IV defaults, all six approaches: ~600 small batches "
            "where fixed per-batch cost (snapshot, sync, commit) dominates",
            tuple(APPROACH_NAMES),
            2.0,
            _meetup,
        ),
    )
}
