"""Online (per-arrival) task allocation — the related-work operating mode.

Tong et al. ([24] in the paper) study assignment where tasks arrive one by
one and each must be matched immediately (or never) with no knowledge of
the future.  The DA-SC paper argues for *batch* processing instead; this
module implements the online mode so the trade-off can be measured
(`benchmarks/bench_ablation_online.py`).

The online policy is the canonical one from that line of work: on each task
arrival, assign the nearest currently-available feasible worker — extended
here with the DA-SC dependency check (a task whose dependencies are not yet
assigned is rejected on arrival; a dependency-oblivious variant is also
available for baseline comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.constraints import pair_feasible
from repro.core.instance import ProblemInstance
from repro.core.worker import Worker
from repro.simulation.platform import RejoinPolicy


@dataclass
class OnlineReport:
    """Outcome of an online run.

    Attributes:
        assignments: task id -> worker id for accepted tasks.
        rejected: task ids that arrived but could not be matched.
        waiting_violations: tasks rejected purely for unmet dependencies
            (a subset of ``rejected``; the price of online myopia).
    """

    assignments: Dict[int, int] = field(default_factory=dict)
    rejected: List[int] = field(default_factory=list)
    waiting_violations: List[int] = field(default_factory=list)
    completion_times: Dict[int, float] = field(default_factory=dict)

    @property
    def score(self) -> int:
        return len(self.assignments)

    def summary(self) -> str:
        return (
            f"online: score={self.score}, rejected={len(self.rejected)} "
            f"(of which {len(self.waiting_violations)} dependency-blocked)"
        )


class OnlinePlatform:
    """Event-driven immediate assignment on task arrival.

    Args:
        instance: the problem.
        dependency_aware: when True (default) a task is only accepted if its
            dependencies are already assigned — the honest DA-SC-compatible
            online policy.  When False the platform assigns greedily and
            invalid acceptances are struck from the score afterwards
            (mirroring how the batch baselines are scored).
        rejoin: worker rejoin policy after completing a task.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        dependency_aware: bool = True,
        rejoin: RejoinPolicy = RejoinPolicy.REMAINING,
    ) -> None:
        self.instance = instance
        self.dependency_aware = dependency_aware
        self.rejoin = rejoin

    def run(self) -> OnlineReport:
        instance = self.instance
        report = OnlineReport()
        graph = instance.dependency_graph
        pool: Dict[int, Worker] = {w.id: w for w in instance.workers}
        busy: Dict[int, tuple] = {}  # worker id -> (worker, free_at, loc, travelled)
        assigned: Set[int] = set()

        for task in sorted(instance.tasks, key=lambda t: (t.start, t.id)):
            now = task.start
            self._release(pool, busy, now)
            deps_ok = graph.satisfied(task.id, assigned) if task.id in graph else True
            if self.dependency_aware and not deps_ok:
                report.rejected.append(task.id)
                report.waiting_violations.append(task.id)
                continue
            worker = self._nearest_feasible(pool, task, now)
            if worker is None:
                report.rejected.append(task.id)
                continue
            dist = instance.metric(worker.location, task.location)
            travel = 0.0 if dist == 0.0 else dist / worker.velocity
            finish = max(now, worker.start) + travel + task.duration
            del pool[worker.id]
            busy[worker.id] = (worker, finish, task.location, dist)
            assigned.add(task.id)
            report.assignments[task.id] = worker.id
            report.completion_times[task.id] = finish

        if not self.dependency_aware:
            self._strike_invalid(report, graph)
        return report

    # -- internals ------------------------------------------------------------------

    def _release(self, pool: Dict[int, Worker], busy: Dict[int, tuple], now: float) -> None:
        done = [wid for wid, (_, free_at, _, _) in busy.items() if free_at <= now]
        for wid in done:
            worker, free_at, location, travelled = busy.pop(wid)
            rejoined = self.rejoin.rejoined(worker, location, free_at, travelled)
            if rejoined is not None:
                pool[wid] = rejoined

    def _nearest_feasible(
        self, pool: Dict[int, Worker], task, now: float
    ) -> Optional[Worker]:
        best: Optional[Worker] = None
        best_dist = float("inf")
        for worker in pool.values():
            if not worker.active_at(now):
                continue
            if not pair_feasible(worker, task, self.instance.metric, now):
                continue
            dist = self.instance.metric(worker.location, task.location)
            if dist < best_dist:
                best, best_dist = worker, dist
        return best

    def _strike_invalid(self, report: OnlineReport, graph) -> None:
        changed = True
        while changed:
            changed = False
            assigned = set(report.assignments)
            for task_id in sorted(report.assignments):
                if task_id in graph and not graph.satisfied(task_id, assigned):
                    del report.assignments[task_id]
                    report.completion_times.pop(task_id, None)
                    report.rejected.append(task_id)
                    report.waiting_violations.append(task_id)
                    changed = True
