"""Blockwise feasibility kernels over :class:`ColumnarBatch` snapshots.

The kernels evaluate the scalar predicate of
:func:`repro.core.constraints.pair_feasible` — skill coverage, reach and
the time-dependent deadline test — across whole worker x task tiles in one
sweep.  They view the batch's ``array`` buffers zero-copy through numpy and
compute the masks with vectorised float64 arithmetic.  Without numpy they
are never selected (:func:`columnar_code_for`): feasibility keeps the
scalar path, and calling a kernel directly raises ``RuntimeError``.

Exactness contract
------------------
The kernels return **bit-identical** decisions and distances to the
scalar oracle.  Every operation in the predicate — subtraction, abs,
addition, division, max, comparison — is exactly rounded under IEEE-754,
so numpy float64 reproduces CPython float for float... with one exception:
``numpy.hypot`` is *not* correctly rounded and disagrees with
``math.hypot`` (the scalar Euclidean metric) in the last ulp on ~0.6% of
inputs.  The Euclidean distance column is therefore filled by a C-level
``map(math.hypot, ...)`` sweep — the deltas vectorise,
the final hypot matches libm-exactly — while Manhattan (abs/add only)
vectorises end to end.  Scalar edge semantics carry over verbatim:
``dist == 0.0`` is feasible even at ``velocity <= 0`` (the division's
``inf``/``nan`` is masked exactly as the scalar short-circuit does),
``now = -inf`` flows through the departure ``max`` unchanged, and
duplicate locations simply produce equal distance entries.

Kernels return plain buffers (``bytes`` masks, python int and float
lists) rather than numpy arrays, so callers walking the pairs index python
ints/floats, not array scalars.

Skill first
-----------
Most pairs of a tile fail the skill test (on the paper's synthetic
defaults ~99%), and a rejected pair costs the scalar path only a set
probe.  ``skill_candidates`` (flattened index columns) and
``skill_candidates_dense`` (the row-major cross product, never
materialised) therefore test skills first on the packed columns, in blocks
of :data:`TILE_BLOCK_PAIRS`, and compute distances and verdicts for the
survivors only — the only pairs that ever become python objects.
``rejection_reasons`` names the failing constraint of every pair of a
tile for the event journal.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, repeat
from typing import List, Optional, Sequence, Tuple

from repro.columnar.batch import ColumnarBatch
from repro.obs.metrics import REGISTRY

try:  # pragma: no cover - exercised via the numpy-less CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Metric codes the kernels implement.  A metric advertises eligibility by
#: setting :attr:`repro.spatial.distance.DistanceMetric.columnar_code` to
#: one of these.
CODES = ("euclidean", "manhattan")

_KERNEL_PAIRS = REGISTRY.counter(
    "columnar_kernel_pairs", "worker x task pairs decided by the columnar kernels"
)
_KERNEL_CALLS = REGISTRY.counter(
    "columnar_kernel_calls", "columnar kernel invocations (tiles evaluated)"
)

def columnar_code_for(metric: object) -> Optional[str]:
    """The kernel code feasibility over ``metric`` runs under, or None.

    Full feasibility builds (the engine, each shard engine and a standalone
    :class:`~repro.core.constraints.FeasibilityChecker`) take the columnar
    kernels exactly when numpy is importable and the metric advertises a
    :attr:`~repro.spatial.distance.DistanceMetric.columnar_code` in
    :data:`CODES`; otherwise they keep the scalar per-pair path.

    Why numpy is part of the rule: on a numpy-less host
    (``tests/stubs/nonumpy``, seed 7, identical reports and
    ``engine_stats``) pure-python kernels over the same columns made
    ``synth_default`` slower than the scalar path — ``run_s`` 1.44/1.93 s
    against 1.89/2.78 s — and left ``meetup_six`` flat, so a host without
    numpy runs scalar.
    """
    code = getattr(metric, "columnar_code", None)
    return code if numpy_available() and code in CODES else None


def numpy_available() -> bool:
    return _np is not None


def _numpy():
    if _np is None:
        raise RuntimeError("the columnar kernels need numpy, which is not importable")
    return _np


# -- tile kernels ------------------------------------------------------------------

#: Pairs per block of a skill-first tile sweep.  The skill test's packed
#: ``uint64`` intermediate is one word per pair, so evaluating a tile in
#: blocks of this many pairs caps the sweep's scratch memory at ~1 MB per
#: block however large the tile (a full build of 2500 x 2500 would
#: otherwise allocate ~50 MB at once).  Survivor order does not depend on
#: the block size.
TILE_BLOCK_PAIRS = 1 << 17


def dense_pair_columns(n_workers: int, n_tasks: int) -> Tuple[array, array]:
    """The cross product's ``(widx, tidx)`` position columns, row-major.

    Worker 0 against every task, then worker 1, and so on: the order of
    :func:`skill_candidates_dense`.  Columns are ``array('q')`` buffers
    filled at C level, never per-pair python lists.
    """
    widx = array("q", chain.from_iterable(repeat(i, n_tasks) for i in range(n_workers)))
    return widx, array("q", range(n_tasks)) * n_workers


def _skill_numpy(batch: ColumnarBatch, wi, ti):
    """Packed-mask form of ``task.skill in worker.skills`` per pair."""
    np = _np
    wskills = np.frombuffer(batch.wskills, dtype=np.uint64).reshape(
        batch.n_workers, batch.n_skill_words
    )
    tword = np.frombuffer(batch.tskill_word, dtype=np.int64)
    tbit = np.frombuffer(batch.tskill_bitmask, dtype=np.uint64)
    return (wskills[wi, tword[ti]] & tbit[ti]) != 0


def _verdicts_numpy(batch: ColumnarBatch, wi, ti, now: float, code: str):
    """``(dists, reach_ok, time_ok)`` of the pairs ``(wi[k], ti[k])``.

    ``dists`` is a python-float list (bitwise the scalar metric); the two
    verdicts are boolean arrays.  The skill test is the caller's: together
    the three make up the scalar predicate.
    """
    np = _np
    f64 = np.float64
    dx = np.frombuffer(batch.wx, dtype=f64)[wi] - np.frombuffer(batch.tx, dtype=f64)[ti]
    dy = np.frombuffer(batch.wy, dtype=f64)[wi] - np.frombuffer(batch.ty, dtype=f64)[ti]
    if code == "manhattan":
        dist = np.abs(dx) + np.abs(dy)
        dist_list = dist.tolist()
    else:
        # The deltas vectorise; the hypot itself must match math.hypot
        # bit-for-bit, which numpy.hypot does not guarantee.
        dist_list = list(map(math.hypot, dx.tolist(), dy.tolist()))
        dist = np.asarray(dist_list, dtype=f64)

    wdeadline = np.frombuffer(batch.wdeadline, dtype=f64)[wi]
    velocity = np.frombuffer(batch.wvelocity, dtype=f64)[wi]
    reach = np.frombuffer(batch.wmax_distance, dtype=f64)[wi]
    tdeadline = np.frombuffer(batch.tdeadline, dtype=f64)[ti]

    # depart = max(s_w, s_t, now); the scalar window tests reduce to the
    # two departure comparisons (depart >= both starts by construction).
    depart = np.maximum(
        np.frombuffer(batch.wstart, dtype=f64)[wi],
        np.frombuffer(batch.tstart, dtype=f64)[ti],
    )
    if now != -math.inf:
        depart = np.maximum(depart, now)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The division's inf / nan at velocity == 0 is masked below, as the
        # scalar early returns skip it: dist == 0 links, velocity <= 0
        # rejects (an inf arrival would pass an infinite task deadline).
        # A finite quotient that overflows is inf in scalar python too.
        arrival = dist / velocity
        arrival += depart
    # In place where possible: fewer scratch arrays, same verdicts.
    time_ok = arrival <= tdeadline
    time_ok &= velocity > 0.0
    time_ok |= dist == 0.0
    time_ok &= depart <= tdeadline
    time_ok &= depart <= wdeadline
    return dist_list, dist <= reach, time_ok


_Candidates = Tuple[List[int], List[int], List[float], bytes]


def skill_candidates(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
) -> _Candidates:
    """Skill-passing pairs of a flattened tile, with their verdicts.

    The skill test — which rejects the bulk of a tile and costs the scalar
    path nothing but a set probe — runs first over the packed columns, and
    distances and verdicts are computed for the survivors only.  ``widx`` /
    ``tidx`` may be any integer sequences (``array('q')`` columns avoid
    per-pair python ints).  Returns
    ``(widx, tidx, dists, mask)`` of the survivors in input order, where
    ``mask`` holds the full-predicate verdict of each *candidate*.
    """
    np = _numpy()
    count = len(widx)
    if count != len(tidx):
        raise ValueError(f"widx/tidx length mismatch: {count} vs {len(tidx)}")
    _KERNEL_CALLS.inc()
    _KERNEL_PAIRS.inc(count)
    if count == 0:
        return [], [], [], b""
    wi = np.asarray(widx, dtype=np.intp)
    ti = np.asarray(tidx, dtype=np.intp)
    block = TILE_BLOCK_PAIRS
    keep = np.concatenate([
        np.flatnonzero(_skill_numpy(batch, wi[lo:lo + block], ti[lo:lo + block])) + lo
        for lo in range(0, count, block)
    ])
    return _candidates_numpy(batch, wi[keep], ti[keep], now, code)


def skill_candidates_dense(
    batch: ColumnarBatch, now: float, code: str
) -> _Candidates:
    """Skill-passing pairs of the full cross product, with their verdicts.

    The dense form of :func:`skill_candidates`: the tile's pairs are never
    materialised at all.  Survivors come back in row-major
    (worker-then-task) order — the order a scalar row build evaluates the
    metric in.  The skill test runs in blocks of whole worker rows of
    about :data:`TILE_BLOCK_PAIRS` pairs.
    """
    np = _numpy()
    n_w, n_t = batch.n_workers, batch.n_tasks
    _KERNEL_CALLS.inc()
    _KERNEL_PAIRS.inc(n_w * n_t)
    if n_w == 0 or n_t == 0:
        return [], [], [], b""
    wskills = np.frombuffer(batch.wskills, dtype=np.uint64).reshape(
        n_w, batch.n_skill_words
    )
    tword = np.frombuffer(batch.tskill_word, dtype=np.int64)
    tbit = np.frombuffer(batch.tskill_bitmask, dtype=np.uint64)
    step = max(1, TILE_BLOCK_PAIRS // n_t)
    worker_pos, task_pos = [], []
    for lo in range(0, n_w, step):
        block = (wskills[lo:lo + step][:, tword] & tbit) != 0
        rows, cols = np.nonzero(block)
        worker_pos.append(rows + lo)
        task_pos.append(cols)
    return _candidates_numpy(
        batch, np.concatenate(worker_pos), np.concatenate(task_pos), now, code
    )


def _candidates_numpy(
    batch: ColumnarBatch, wi, ti, now: float, code: str
) -> _Candidates:
    """Verdicts of skill-passing pairs, as ``(widx, tidx, dists, mask)``."""
    dist_list, reach_ok, time_ok = _verdicts_numpy(batch, wi, ti, now, code)
    return (
        wi.tolist(),
        ti.tolist(),
        dist_list,
        (reach_ok & time_ok).astype(_np.uint8).tobytes(),
    )


#: Per-pair verdict codes produced by the reason kernels.  ``0`` means the
#: pair is feasible; the rejection codes index :data:`REASON_NAMES` and
#: follow the scalar short-circuit precedence of
#: :func:`repro.core.constraints.pair_rejection_reason` exactly:
#: skill before reach before deadline.
REASON_FEASIBLE = 0
REASON_SKILL = 1
REASON_REACH = 2
REASON_DEADLINE = 3

#: Reason-code -> journal reason string (position 0 is the feasible verdict).
REASON_NAMES = ("", "skill", "reach", "deadline")


def rejection_reasons(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
) -> bytes:
    """Per-pair verdict codes over a flattened tile of (worker, task) positions.

    Entry ``k`` is :data:`REASON_FEASIBLE` exactly when the pair is
    feasible — a skill candidate of :func:`skill_candidates` with its mask
    bit set — and otherwise names the first failing constraint under the
    scalar precedence (skill -> reach -> deadline).  Runs only when the
    event journal is enabled, and is observational-only: it does **not**
    touch the kernel counters, so engine_stats stay bit-identical with
    events on or off.
    """
    np = _numpy()
    count = len(widx)
    if count != len(tidx):
        raise ValueError(f"widx/tidx length mismatch: {count} vs {len(tidx)}")
    if count == 0:
        return b""
    wi = np.asarray(widx, dtype=np.intp)
    ti = np.asarray(tidx, dtype=np.intp)
    skill = _skill_numpy(batch, wi, ti)
    _, reach_ok, time_ok = _verdicts_numpy(batch, wi, ti, now, code)
    codes = np.zeros(len(widx), dtype=np.uint8)
    codes[~skill] = REASON_SKILL
    codes[skill & ~reach_ok] = REASON_REACH
    codes[skill & reach_ok & ~time_ok] = REASON_DEADLINE
    return codes.tobytes()


def true_positions(mask: bytes) -> List[int]:
    """Indices of the set entries of a kernel mask.

    Vectorised (``nonzero`` over a zero-copy view): callers building rows
    from a tile mask touch only the surviving pairs.
    """
    np = _numpy()
    return np.frombuffer(mask, dtype=np.uint8).nonzero()[0].tolist()
