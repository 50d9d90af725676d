"""A fixed reference workload that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of two and more over minutes, the CPU clock of the process as much
as the wall clock, because neighbours contend for the processor, caches and
memory.  Such drift hits every iteration of a benchmark run alike, so no
statistic over the run removes it.  The benchmark therefore times this workload next to every
measured run and reports times divided by the host slowness it saw: a time
at slowness 1.0 is what the host gives when it runs the reference in
:data:`NOMINAL_S` seconds.

The workload imitates the program's own mix, interpreter-bound Python over
freshly allocated small objects, dicts and sorted lists plus random probes
of a table larger than a core's caches, and depends on
nothing in the program, so a change to the program cannot change it.  It
allocates everything it touches and frees it again, so it leaves nothing
behind for the program's garbage collections to walk.
"""

from __future__ import annotations

import gc
import random
import time
from array import array

#: Seconds one :func:`reference_s` call takes on the host at slowness 1.0
#: (about the median on an idle 2-vCPU Xeon VM, CPython 3.11).
NOMINAL_S = 0.1

_N = 40_000
_rng = random.Random(20240601)
# Inputs live in arrays, which the garbage collector does not walk.
_VALUES = array("d", (_rng.random() for _ in range(_N)))
_PROBES = array("q", (_rng.randrange(_N) for _ in range(_N)))
_WIDE_N = 160_000
_WIDE_KEYS = array("q", (_rng.randrange(1 << 40) for _ in range(_WIDE_N)))
_WIDE_PROBES = array("q", (_WIDE_KEYS[_rng.randrange(_WIDE_N)] for _ in range(_WIDE_N)))


def _workload() -> float:
    # Small objects: build, probe, filter and sort a table of tuples.
    table = {}
    for i, v in enumerate(_VALUES):
        table[i * 7919 % 1_000_003] = (v, i, str(i))
    hits = [(table[p * 7919 % 1_000_003][0], p) for p in _PROBES]
    hits.sort()
    kept = [(v * 2.0, k) for k, (v, _, _) in table.items() if v > 0.3]
    kept.sort(key=lambda pair: pair[0])
    # A working set past the core's own caches: random probes of a wide table.
    wide = dict.fromkeys(_WIDE_KEYS, 0.5)
    total = 0.0
    for k in _WIDE_PROBES:
        total += wide[k]
    return hits[len(hits) // 2][0] + kept[0][0] + total


def reference_s() -> float:
    """Wall seconds of one reference run, garbage collection held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _workload()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def slowness(before: float, after: float) -> float:
    """Host slowness for a run bracketed by two reference times (1.0 = nominal)."""
    return (before + after) / (2.0 * NOMINAL_S)
