"""Experiment fan-out: sweep cells across the shared process pool.

A *cell* is one (sweep value, approach, repetition) measurement — exactly
the unit the paper's evaluation grids over (Section V runs every approach
at every swept value, Figures 2–15).  Cells are independent by
construction: each gets its own platform, engine and allocator, so fanning
them across processes cannot change any result, only the wall-clock.

Determinism contract
--------------------
Jobs are enumerated repetition-major, then value, then approach — the same
nesting a serial loop uses — and :func:`repro.parallel.pool.ordered_map`
returns results in submission order, so the merged
:class:`~repro.experiments.harness.SweepResult` lists points in exactly the
serial order.  Instances are generated *in the parent* (``make_instance``
may be a closure, and generation must happen once per value, not once per
job) and shipped to workers by pickle; per-repetition seeds come from
:func:`repro.parallel.seeds.repetition_seeds`, whose repetition 0 is the
base seed itself.  ``n_jobs=1`` therefore reproduces both the parallel
runs and the historic serial harness bit for bit — pinned by
``tests/parallel/test_determinism.py``.

Observability merges at join time: each worker runs under a private tracer
and metrics registry, ships span/metric payloads back with its scores, and
the parent folds them in under ``parallel.fanout`` / ``parallel.merge``
phase spans (counters sum, gauges last-write, histograms bucket-merge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.instance import ProblemInstance
from repro.obs.export import merge_metrics_records, metrics_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer, import_spans, span_payload
from repro.parallel.pool import ordered_map, resolve_jobs
from repro.parallel.seeds import repetition_seeds

if TYPE_CHECKING:  # annotation-only: importing at runtime would be circular
    # (engine -> parallel -> sweep -> algorithms.base -> engine.context).
    from repro.algorithms.base import BatchAllocator


@dataclass(frozen=True)
class _Cell:
    """One fan-out job: everything a worker needs, all picklable."""

    label: str
    approach: str
    seed: int
    batch_interval: float
    single_batch: bool
    trace: bool
    instance: ProblemInstance
    allocator: Optional[BatchAllocator]


@dataclass
class _CellResult:
    score: int
    elapsed: float
    spans: List[tuple]
    metrics: List[dict]


def _run_cell(cell: _Cell) -> _CellResult:
    # Imported here, not at module top: the harness imports this module
    # lazily from inside its functions, so a top-level import back into the
    # harness would be circular during interpreter start-up.
    from repro.experiments.harness import _evaluate_one

    tracer = Tracer() if cell.trace else NULL_TRACER
    score, elapsed, registry = _evaluate_one(
        cell.instance,
        cell.approach,
        cell.allocator,
        cell.batch_interval,
        cell.seed,
        cell.single_batch,
        tracer,
    )
    return _CellResult(
        score,
        elapsed,
        span_payload(tracer) if cell.trace else [],
        metrics_records(registry) if registry is not None else [],
    )


def _merge_cell(
    result: _CellResult,
    tracer: Tracer,
    merge_span,
    metrics: Optional[MetricsRegistry],
) -> None:
    if tracer.enabled and result.spans:
        import_spans(tracer, result.spans, parent=merge_span)
    if metrics is not None and result.metrics:
        merge_metrics_records(metrics, result.metrics)


def evaluate_approaches_parallel(
    instance: ProblemInstance,
    approaches: Sequence[str],
    batch_interval: float,
    seed: int,
    single_batch: bool,
    allocators: Optional[Dict[str, BatchAllocator]],
    tracer: Optional[Tracer],
    n_jobs: int,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Tuple[int, float]]:
    """Fan one approach-comparison across the pool (parallel twin of
    :func:`repro.experiments.harness.evaluate_approaches`)."""
    tracer = tracer if tracer is not None else get_tracer()
    workers = resolve_jobs(n_jobs)
    cells = [
        _Cell(
            label="",
            approach=name,
            seed=seed,
            batch_interval=batch_interval,
            single_batch=single_batch,
            trace=tracer.enabled,
            instance=instance,
            allocator=(allocators or {}).get(name),
        )
        for name in approaches
    ]
    with tracer.span("parallel.fanout") as span:
        results = ordered_map(_run_cell, cells, workers)
        if tracer.enabled:
            span.set("jobs", len(cells))
            span.set("n_jobs", workers)
    out: Dict[str, Tuple[int, float]] = {}
    with tracer.span("parallel.merge") as merge_span:
        for name, result in zip(approaches, results):
            out[name] = (result.score, result.elapsed)
            _merge_cell(result, tracer, merge_span, metrics)
    return out


def sweep_cells(
    name: str,
    parameter: str,
    values: Sequence,
    make_instance,
    approaches: Sequence[str],
    *,
    batch_interval: float = 5.0,
    base_seed: int = 0,
    repetitions: int = 1,
    seeds: Optional[Sequence[int]] = None,
    single_batch: bool = False,
    allocators: Optional[Dict[str, BatchAllocator]] = None,
    n_jobs: int = -1,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
):
    """Run a (value x approach x repetition) grid through the pool.

    Args:
        values / make_instance / approaches: as in ``run_sweep``.
        base_seed / repetitions: repetition ``r`` runs with
            ``repetition_seeds(base_seed, repetitions)[r]`` — repetition 0
            is the base seed, so one repetition reproduces ``run_sweep``.
        seeds: explicit per-repetition seeds overriding the derivation
            (``len(seeds)`` becomes the repetition count).
        n_jobs: pool width (negative = all CPUs, 1 = serial loop).
        metrics: optional registry receiving every worker's merged metrics.

    Returns:
        One :class:`~repro.experiments.harness.SweepResult` per repetition,
        each with points in the serial (value-major, approach-minor) order.
    """
    from repro.experiments.harness import SweepPoint, SweepResult

    tracer = tracer if tracer is not None else get_tracer()
    rep_seeds = list(seeds) if seeds is not None else repetition_seeds(base_seed, repetitions)
    values = list(values)
    approaches = list(approaches)
    workers = resolve_jobs(n_jobs)
    with tracer.span("parallel.fanout") as span:
        instances = [make_instance(value) for value in values]
        cells = [
            _Cell(
                label=str(value),
                approach=approach,
                seed=rep_seed,
                batch_interval=batch_interval,
                single_batch=single_batch,
                trace=tracer.enabled,
                instance=instances[value_index],
                allocator=(allocators or {}).get(approach),
            )
            for rep_seed in rep_seeds
            for value_index, value in enumerate(values)
            for approach in approaches
        ]
        results = ordered_map(_run_cell, cells, workers)
        if tracer.enabled:
            span.set("experiment", name)
            span.set("jobs", len(cells))
            span.set("n_jobs", workers)
    sweeps: List = []
    with tracer.span("parallel.merge") as merge_span:
        flat = iter(zip(cells, results))
        for _ in rep_seeds:
            sweep = SweepResult(name=name, parameter=parameter)
            for _ in values:
                for _ in approaches:
                    cell, result = next(flat)
                    sweep.points.append(
                        SweepPoint(cell.label, cell.approach, result.score, result.elapsed)
                    )
                    _merge_cell(result, tracer, merge_span, metrics)
            sweeps.append(sweep)
        if tracer.enabled:
            merge_span.set("repetitions", len(rep_seeds))
    return sweeps
