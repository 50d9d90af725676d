"""Timed runs of a workload through the public Platform API.

One *iteration* runs every approach of a workload once.  Each approach
gets a fresh instance, allocator and :class:`~repro.simulation.platform.Platform`
built from the generated records; set-up (instance, dependency graph,
allocator, platform) and ``Platform.run()`` are timed separately.  The
default configuration is used throughout: ``n_jobs=1`` and every toggle at
its process default.  Only small results are kept from a run (report,
counters, path stamp), so iterations do not pile up engines and caches.
Timed iterations bracket every approach run with :mod:`reference` runs, so
each time can be divided by the host slowness measured around it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform as _platform
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro.algorithms.greedy as greedy_module
from repro.algorithms.registry import make_allocator
from repro.columnar.game_kernels import default_game_kernels
from repro.columnar.kernels import numpy_available
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.simulation.platform import Platform
from repro.simulation.stats import SimulationReport

from outputs import CapturingAllocator, RunCheck, validate_run
from reference import reference_s, slowness
from workloads import Records, Workload

#: Process-wide substrate counters read as per-iteration deltas.
REGISTRY_COUNTERS = ("matching_augment_rounds", "matching_warm_starts")


@dataclass
class ApproachRun:
    """One approach's set-up and run timings plus what it produced."""

    approach: str
    instance_s: float
    depgraph_s: float
    setup_s: float
    run_s: float
    report: SimulationReport
    aux_stats: Dict[str, float]
    stamp: Dict[str, object]
    check: Optional[RunCheck] = None
    #: Host slowness around the run (:func:`reference.slowness`; 1.0 = nominal).
    slowness: float = 1.0

    @property
    def alloc_s(self) -> float:
        return self.report.total_elapsed


@dataclass
class Iteration:
    """Every approach of a workload, run once."""

    runs: List[ApproachRun]
    tracer: Optional[Tracer] = None
    match_calls: int = 0
    registry_deltas: Dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.runs)

    @property
    def run_s(self) -> float:
        return sum(r.run_s for r in self.runs)

    @property
    def alloc_s(self) -> float:
        return sum(r.alloc_s for r in self.runs)

    @property
    def score(self) -> int:
        return sum(r.report.total_score for r in self.runs)

    def at_nominal_speed(self, name: str) -> float:
        """``setup_s``, ``run_s`` or ``alloc_s`` summed over the runs, each
        run's time divided by the host slowness measured around it."""
        return sum(getattr(r, name) / r.slowness for r in self.runs)


def path_stamp(platform: Platform) -> Dict[str, object]:
    """Which code paths the run took, so unlike runs are never compared."""
    engine = platform.last_engine
    return {
        "numpy": numpy_available(),
        "columnar_active": engine is not None and engine.columnar_active,
        "store_active": engine is not None and engine.store_active,
        "game_kernels_default": default_game_kernels(),
        "nproc": os.cpu_count(),
        "python": _platform.python_version(),
    }


def run_approach(
    records: Records,
    workload: Workload,
    approach: str,
    seed: int,
    tracer: Optional[Tracer] = None,
    check: bool = False,
) -> ApproachRun:
    """Build everything fresh from ``records`` and run one approach.

    ``check`` wraps the allocator in a :class:`CapturingAllocator` and
    validates every batch after the run (use it on untimed runs only).
    """
    gc.collect()
    started = time.perf_counter()
    instance = records.build_instance()
    built = time.perf_counter()
    instance.dependency_graph
    graphed = time.perf_counter()
    allocator = make_allocator(approach, seed=seed)
    if check:
        allocator = CapturingAllocator(allocator)
    platform = Platform(
        instance, allocator, batch_interval=workload.batch_interval, tracer=tracer
    )
    ready = time.perf_counter()
    report = platform.run()
    finished = time.perf_counter()
    engine = platform.last_engine
    return ApproachRun(
        approach=approach,
        instance_s=built - started,
        depgraph_s=graphed - built,
        setup_s=ready - started,
        run_s=finished - ready,
        report=report,
        aux_stats=engine.aux_stats() if engine is not None else {},
        stamp=path_stamp(platform),
        check=validate_run(instance, allocator.batches, report) if check else None,
    )


@contextlib.contextmanager
def timed_matching(tracer: Tracer, calls: List[int]) -> Iterator[None]:
    """Time every ``match_task_set`` call of the greedy staffing loop.

    The greedy module's reference is swapped for a wrapper that records a
    ``matching.match_set`` span and counts the call, and is restored on
    exit.
    """
    original = greedy_module.match_task_set

    def traced_match_task_set(*args, **kwargs):
        calls[0] += 1
        with tracer.span("matching.match_set"):
            return original(*args, **kwargs)

    greedy_module.match_task_set = traced_match_task_set
    try:
        yield
    finally:
        greedy_module.match_task_set = original


def run_iteration(
    inputs: Sequence[Records],
    workload: Workload,
    seed: int,
    traced: bool = False,
    check: bool = False,
    calibrated: bool = False,
) -> Iteration:
    """Run every approach once on every instance of the workload's inputs;
    ``traced`` adds a tracer and matching timers, ``calibrated`` brackets
    every run with reference runs and records the host slowness around it."""
    if not traced:
        runs = []
        before = reference_s() if calibrated else 0.0
        for records in inputs:
            for a in workload.approaches:
                run = run_approach(records, workload, a, seed, check=check)
                if calibrated:
                    after = reference_s()
                    run.slowness = slowness(before, after)
                    before = after
                runs.append(run)
        return Iteration(runs)
    tracer = Tracer()
    calls = [0]
    before = {name: REGISTRY.counter(name).value for name in REGISTRY_COUNTERS}
    with timed_matching(tracer, calls):
        runs = [
            run_approach(records, workload, a, seed, tracer=tracer, check=check)
            for records in inputs
            for a in workload.approaches
        ]
    deltas = {
        name: REGISTRY.counter(name).value - before[name] for name in REGISTRY_COUNTERS
    }
    return Iteration(runs, tracer=tracer, match_calls=calls[0], registry_deltas=deltas)


def alloc_samples(iteration: Iteration) -> List[float]:
    """Allocator seconds of every batch that offered workers and tasks."""
    return [
        b.elapsed
        for r in iteration.runs
        for b in r.report.batches
        if b.available_workers and b.open_tasks
    ]


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)``: the highest order statistic with at least ten
    samples beyond it, or None for fewer than 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, ordered[k]
