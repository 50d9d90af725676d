"""Process-pool sweep fan-out: identical results, less wall-clock.

A multi-repetition (value x approach x repetition) grid runs once serially
and once across 4 worker processes.  The results must match bit for bit —
that is the parallel layer's contract — and on a multi-core host the
fan-out must be at least 2x faster.  The speedup assertion is gated on the
CPUs actually available (CI runners have several; a single-core container
timeshares the workers and can't speed anything up), but the measured
numbers are recorded either way so the trajectory in
``results/BENCH_engine.json`` always reflects the machine that produced it.
"""

import time

from repro.algorithms.registry import APPROACH_NAMES
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.parallel.pool import available_cpus, shutdown_executors
from repro.parallel.sweep import sweep_cells

_SCALE = 0.06  # 300x300 per instance
_VALUES = [1, 2]
_REPETITIONS = 2
_N_JOBS = 4


def _make_instance(value):
    return generate_synthetic(SyntheticConfig(seed=int(value)).scaled(_SCALE))


def _grid(n_jobs):
    return sweep_cells(
        "parallel-sweep-bench",
        "seed",
        _VALUES,
        _make_instance,
        APPROACH_NAMES,
        base_seed=7,
        repetitions=_REPETITIONS,
        n_jobs=n_jobs,
    )


def _flat(sweeps):
    return [
        (p.label, p.approach, p.score)
        for sweep in sweeps
        for p in sweep.points
    ]


def test_parallel_sweep_speedup(record_bench_json):
    cpus = available_cpus()

    started = time.perf_counter()
    serial = _grid(1)
    serial_ms = (time.perf_counter() - started) * 1000.0

    # Warm the pool outside the timed window: fork latency is a one-off
    # process cost, not a per-sweep cost, and the pool is shared afterwards.
    _grid(_N_JOBS)
    started = time.perf_counter()
    parallel = _grid(_N_JOBS)
    parallel_ms = (time.perf_counter() - started) * 1000.0

    assert _flat(parallel) == _flat(serial), "parallel sweep diverged from serial"

    speedup = serial_ms / parallel_ms if parallel_ms > 0.0 else 0.0
    record_bench_json(
        "parallel_sweep_4x",
        {
            "instance": f"synthetic scale={_SCALE} seeds={_VALUES}",
            "approaches": len(APPROACH_NAMES),
            "repetitions": _REPETITIONS,
            "n_jobs": _N_JOBS,
            "cpus": cpus,
        },
        parallel_ms,
        {
            "serial_wall_ms": round(serial_ms, 3),
            "speedup": round(speedup, 3),
            "cells": len(_flat(serial)),
        },
    )
    shutdown_executors()

    if cpus >= _N_JOBS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup on {cpus} CPUs, got {speedup:.2f}x "
            f"(serial {serial_ms:.0f} ms, parallel {parallel_ms:.0f} ms)"
        )
