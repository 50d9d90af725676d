"""Process-pool lifecycle for the parallel layer.

One module owns every executor the library spawns, so the experiment
fan-outs (`repro.parallel.sweep`, the repeated-seed runner of
`repro.experiments.aggregate`) share pools instead of paying a fork per
call.  A single simulation never fans out.  Executors are cached by worker
count and live until :func:`shutdown_executors` (or interpreter exit).

Determinism contract
--------------------
Nothing here reorders results: :func:`ordered_map` always returns outputs
in input order, and the ``n_jobs=1`` path is a plain list comprehension —
no executor, no pickling, no queues — so serial callers pay zero overhead
and parallel callers get bit-identical results merged in the same order a
serial loop would have produced them.

The pool uses the ``fork`` start method where available (Linux): workers
inherit the parent's imports, which keeps dispatch latency in the
milliseconds.  Platforms without ``fork`` fall back to the default start
method for the host OS.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_EXECUTORS: Dict[int, ProcessPoolExecutor] = {}


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``0`` mean serial (1); any negative value means "all
    available CPUs"; positive values pass through unchanged.
    """
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return available_cpus()
    return int(n_jobs)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


def get_executor(n_jobs: int) -> ProcessPoolExecutor:
    """The shared executor with ``n_jobs`` workers (created on first use)."""
    if n_jobs < 2:
        raise ValueError(f"executors need at least 2 workers, got {n_jobs}")
    executor = _EXECUTORS.get(n_jobs)
    if executor is None:
        executor = ProcessPoolExecutor(max_workers=n_jobs, mp_context=_mp_context())
        _EXECUTORS[n_jobs] = executor
    return executor


def shutdown_executors() -> int:
    """Shut every cached executor down; returns how many were alive."""
    count = len(_EXECUTORS)
    for executor in _EXECUTORS.values():
        executor.shutdown(wait=True, cancel_futures=True)
    _EXECUTORS.clear()
    return count


def ordered_map(
    fn: Callable[[T], R], jobs: Iterable[T], n_jobs: int | None = 1
) -> List[R]:
    """Apply ``fn`` to every job, returning results in input order.

    With a resolved worker count of 1 (or fewer than two jobs) this is a
    plain serial loop.  Otherwise jobs fan out across the shared process
    pool; ``fn`` and every job must be picklable.  A broken pool (a worker
    killed by the OS, say the OOM killer) falls back to serial execution —
    results are bit-identical either way, only the wall-clock changes.
    """
    jobs = list(jobs)
    workers = min(resolve_jobs(n_jobs), len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    executor = get_executor(workers)
    try:
        return list(executor.map(fn, jobs))
    except BrokenProcessPool:
        _EXECUTORS.pop(workers, None)
        return [fn(job) for job in jobs]
