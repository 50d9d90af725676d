"""Sweep execution: run a set of approaches across a parameter series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import BatchAllocator
from repro.algorithms.registry import make_allocator
from repro.core.instance import ProblemInstance
from repro.obs.export import merge_metrics_records, metrics_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer
from repro.parallel.pool import resolve_jobs
from repro.simulation.platform import Platform, run_single_batch


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, approach) measurement.

    Attributes:
        label: the swept value, e.g. ``"[0.02, 0.025]"``.
        approach: allocator display name.
        score: total valid assigned worker-and-task pairs.
        elapsed: allocator running time in seconds.
    """

    label: str
    approach: str
    score: int
    elapsed: float


@dataclass
class SweepResult:
    """A full experiment: every approach at every swept value."""

    name: str
    parameter: str
    points: List[SweepPoint] = field(default_factory=list)
    # Lookup index over ``points`` keyed by (label, approach).  ``points`` is
    # a public list callers append to freely, so the index is rebuilt
    # whenever its size no longer matches (points are append-only in
    # practice; a key miss after rebuild is a genuine miss).
    _index: Dict[Tuple[str, str], SweepPoint] = field(
        default_factory=dict, repr=False, compare=False
    )
    _indexed_count: int = field(default=-1, repr=False, compare=False)

    @property
    def labels(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.label not in seen:
                seen.append(point.label)
        return seen

    @property
    def approaches(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.approach not in seen:
                seen.append(point.approach)
        return seen

    def point(self, label: str, approach: str) -> SweepPoint:
        if self._indexed_count != len(self.points):
            # setdefault keeps the *first* occurrence on duplicate keys,
            # matching the linear scan this index replaced.
            self._index = {}
            for p in self.points:
                self._index.setdefault((p.label, p.approach), p)
            self._indexed_count = len(self.points)
        try:
            return self._index[(label, approach)]
        except KeyError:
            raise KeyError(f"no point for ({label!r}, {approach!r})") from None

    def scores_of(self, approach: str) -> List[int]:
        """Scores across the sweep, in label order — one figure line."""
        return [self.point(label, approach).score for label in self.labels]

    def times_of(self, approach: str) -> List[float]:
        """Running times across the sweep, in label order."""
        return [self.point(label, approach).elapsed for label in self.labels]


def _evaluate_one(
    instance: ProblemInstance,
    name: str,
    allocator: Optional[BatchAllocator],
    batch_interval: float,
    seed: int,
    single_batch: bool,
    tracer: Tracer,
) -> Tuple[int, float, Optional[MetricsRegistry]]:
    """One (instance, approach) measurement — the unit both the serial loop
    and the parallel fan-out execute, so the two paths cannot drift.

    Returns ``(score, elapsed, metrics registry)``; the registry is the
    platform's per-run registry (None in the single-batch setting, which
    runs no platform).
    """
    if allocator is None:
        allocator = make_allocator(name, seed=seed)
    registry: Optional[MetricsRegistry] = None
    with tracer.span("harness.approach") as span:
        if single_batch:
            outcome = run_single_batch(instance, allocator)
            score, elapsed = outcome.score, outcome.elapsed
        else:
            platform = Platform(
                instance,
                allocator,
                batch_interval=batch_interval,
                tracer=tracer,
            )
            report = platform.run()
            registry = platform.metrics_registry
            score, elapsed = report.total_score, report.total_elapsed
    if tracer.enabled:
        span.set("approach", name)
        span.set("score", score)
    return score, elapsed, registry


def evaluate_approaches(
    instance: ProblemInstance,
    approaches: Sequence[str],
    batch_interval: float = 5.0,
    seed: int = 0,
    single_batch: bool = False,
    allocators: Optional[Dict[str, BatchAllocator]] = None,
    tracer: Optional[Tracer] = None,
    n_jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Tuple[int, float]]:
    """Run each named approach over the instance.

    Args:
        instance: the problem.
        approaches: names accepted by
            :func:`repro.algorithms.registry.make_allocator`, or keys of
            ``allocators``.
        batch_interval: the platform's batch period (ignored when
            ``single_batch``).
        seed: seed handed to stochastic allocators.
        single_batch: run the offline single-batch setting (Table VI) instead
            of the dynamic platform.
        allocators: optional pre-built allocators overriding the registry.
        tracer: span tracer wrapping each approach's run (and, through the
            platform, every batch phase).  None uses the process default.
        n_jobs: fan the approaches across a process pool (1 = serial,
            negative = all CPUs).  Results are bit-identical either way;
            approaches are independent runs.
        metrics: optional registry collecting every run's platform/engine
            metrics (merged per approach, in approach order).

    Returns:
        approach name -> ``(total score, total allocator seconds)``.
    """
    tracer = tracer if tracer is not None else get_tracer()
    if resolve_jobs(n_jobs) > 1 and len(approaches) > 1:
        from repro.parallel.sweep import evaluate_approaches_parallel

        return evaluate_approaches_parallel(
            instance,
            approaches,
            batch_interval,
            seed,
            single_batch,
            allocators,
            tracer,
            n_jobs,
            metrics,
        )
    results: Dict[str, Tuple[int, float]] = {}
    for name in approaches:
        score, elapsed, registry = _evaluate_one(
            instance,
            name,
            (allocators or {}).get(name),
            batch_interval,
            seed,
            single_batch,
            tracer,
        )
        results[name] = (score, elapsed)
        if metrics is not None and registry is not None:
            merge_metrics_records(metrics, metrics_records(registry))
    return results


def run_sweep(
    name: str,
    parameter: str,
    values: Sequence,
    make_instance: Callable[[object], ProblemInstance],
    approaches: Sequence[str],
    batch_interval: float = 5.0,
    seed: int = 0,
    single_batch: bool = False,
    tracer: Optional[Tracer] = None,
    n_jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
) -> SweepResult:
    """Evaluate ``approaches`` on ``make_instance(value)`` for each value.

    ``n_jobs > 1`` fans the (value, approach) grid across a process pool
    via :func:`repro.parallel.sweep.sweep_cells`; the merged result is
    bit-identical to the serial loop (same points, same order).
    """
    tracer = tracer if tracer is not None else get_tracer()
    if resolve_jobs(n_jobs) > 1:
        from repro.parallel.sweep import sweep_cells

        return sweep_cells(
            name,
            parameter,
            values,
            make_instance,
            approaches,
            batch_interval=batch_interval,
            base_seed=seed,
            single_batch=single_batch,
            n_jobs=n_jobs,
            tracer=tracer,
            metrics=metrics,
        )[0]
    result = SweepResult(name=name, parameter=parameter)
    for value in values:
        with tracer.span("harness.sweep_value") as span:
            instance = make_instance(value)
            measured = evaluate_approaches(
                instance,
                approaches,
                batch_interval=batch_interval,
                seed=seed,
                single_batch=single_batch,
                tracer=tracer,
                metrics=metrics,
            )
        if tracer.enabled:
            span.set("experiment", name)
            span.set("value", str(value))
        for approach, (score, elapsed) in measured.items():
            result.points.append(SweepPoint(str(value), approach, score, elapsed))
    return result
