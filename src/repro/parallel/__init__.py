"""Process-pool parallelism: experiment fan-out.

The paper's evaluation (Section V, Figures 2–15, Table VI) is
embarrassingly parallel — every (sweep value, approach, repetition) cell
is an independent simulation.  This package exploits that without changing
a single result:

* :mod:`repro.parallel.pool` — shared :class:`ProcessPoolExecutor`
  lifecycle and :func:`ordered_map`, whose ``n_jobs=1`` path is a plain
  loop (zero overhead) and whose parallel path preserves input order.
* :mod:`repro.parallel.seeds` — SHA-256 seed derivation so a job's RNG
  stream depends only on its coordinates, never on scheduling.
* :mod:`repro.parallel.sweep` — fans harness cells across the pool and
  merges scores, spans and metrics back in serial order.

The hard invariant everywhere: **parallel equals serial, bit for bit** —
same seeds, same ``Sum(M)``, same reports, same ``engine_stats`` — pinned
by ``tests/parallel/test_determinism.py``.  ``n_jobs`` follows one
convention across the sweep APIs: ``1`` serial, ``N >= 2`` that many workers,
negative = all available CPUs.
"""

from repro.parallel.pool import (
    available_cpus,
    get_executor,
    ordered_map,
    resolve_jobs,
    shutdown_executors,
)
from repro.parallel.seeds import derive_seed, repetition_seeds
from repro.parallel.sweep import evaluate_approaches_parallel, sweep_cells

__all__ = [
    "available_cpus",
    "derive_seed",
    "evaluate_approaches_parallel",
    "get_executor",
    "ordered_map",
    "repetition_seeds",
    "resolve_jobs",
    "shutdown_executors",
    "sweep_cells",
]
