"""Property tests pinning the columnar kernels to the scalar oracle.

The exactness contract of :mod:`repro.columnar.kernels` is *bitwise*
equality with :func:`repro.core.constraints.pair_feasible` — decisions AND
distances.  These tests generate adversarial populations
(zero-velocity workers, coincident locations, empty skill sets, skill
universes wider than one packed 64-bit word, ``now = -inf``) and compare
every kernel against the scalar predicate float for float: the skill-first
kernels must return exactly the skill-passing pairs, in tile order, with
the scalar metric's distances and :func:`pair_feasible`'s verdicts.
``test_rejection_reasons_match_scalar_oracle`` does the same for the
reason codes against :func:`repro.core.constraints.pair_rejection_reason`.
"""

import math
import random
import warnings
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.columnar as columnar
import repro.columnar.kernels as kernels
from repro.columnar import (
    REASON_NAMES,
    ColumnarBatch,
    dense_pair_columns,
    rejection_reasons,
    skill_candidates,
    skill_candidates_dense,
)
from repro.core.constraints import pair_feasible, pair_rejection_reason
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import EuclideanDistance, ManhattanDistance

METRICS = {"euclidean": EuclideanDistance(), "manhattan": ManhattanDistance()}
pytest.importorskip("numpy")

BACKENDS = {"numpy": columnar}


def _population(rng, n_w, n_t, n_skills):
    """Adversarial mix: every few workers/tasks hit a scalar edge case."""
    coincident = (rng.uniform(0, 2), rng.uniform(0, 2))
    workers = []
    for i in range(n_w):
        location = coincident if i % 5 == 0 else (
            rng.uniform(0, 2), rng.uniform(0, 2)
        )
        skills = frozenset(
            rng.sample(range(n_skills), rng.randint(0, min(3, n_skills)))
        )
        workers.append(
            Worker(
                id=i,
                location=location,
                start=rng.uniform(0, 5),
                wait=rng.uniform(0, 10),
                velocity=0.0 if i % 4 == 0 else rng.uniform(0.1, 2.0),
                max_distance=rng.uniform(0.0, 3.0),
                skills=skills,
            )
        )
    tasks = []
    for j in range(n_t):
        location = coincident if j % 3 == 0 else (
            rng.uniform(0, 2), rng.uniform(0, 2)
        )
        tasks.append(
            Task(
                id=j,
                location=location,
                start=rng.uniform(0, 5),
                wait=rng.uniform(0, 10),
                skill=rng.randrange(n_skills),
            )
        )
    return workers, tasks


@given(
    st.integers(0, 10_000_000),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(["euclidean", "manhattan"]),
    st.sampled_from([2, 3, 70, 150]),  # 70/150 force multi-word skill masks
    st.sampled_from([-math.inf, 0.0, 4.5]),
)
@settings(max_examples=120, deadline=None)
def test_feasible_pairs_matches_scalar_oracle(seed, n_w, n_t, code, n_skills, now):
    """Pair by pair over the full flat tile: a pair is a candidate iff the
    worker has the task's skill, with the metric's distance and
    :func:`pair_feasible`'s verdict."""
    rng = random.Random(seed)
    workers, tasks = _population(rng, n_w, n_t, n_skills)
    metric = METRICS[code]
    batch = ColumnarBatch(workers, tasks)
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    cw, ct, dists, mask = skill_candidates(batch, widx, tidx, now, code)
    found = {(i, j): k for k, (i, j) in enumerate(zip(cw, ct))}
    assert len(found) == len(cw)
    for i, j in zip(widx, tidx):
        worker, task = workers[i], tasks[j]
        k = found.get((i, j))
        assert (k is not None) == (task.skill in worker.skills)
        if k is None:
            continue
        # Bitwise distance equality, not approximate.
        exact = metric(worker.location, task.location)
        assert math.isclose(dists[k], exact, rel_tol=0.0, abs_tol=0.0)
        assert bool(mask[k]) == pair_feasible(worker, task, metric, now)


@given(
    st.integers(0, 10_000_000),
    st.sampled_from(["euclidean", "manhattan"]),
    st.sampled_from([-math.inf, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_dense_kernels_agree_with_flat(seed, code, now):
    rng = random.Random(seed)
    workers, tasks = _population(rng, rng.randint(1, 10), rng.randint(1, 10), 70)
    batch = ColumnarBatch(workers, tasks)
    n_w, n_t = len(workers), len(tasks)
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    flat = skill_candidates(batch, widx, tidx, now, code)
    assert skill_candidates_dense(batch, now, code) == flat
    assert flat == _survivors(workers, tasks, widx, tidx, now, code)


@given(
    st.integers(0, 10_000_000),
    st.integers(0, 64),
    st.sampled_from(["euclidean", "manhattan"]),
)
@settings(max_examples=60, deadline=None)
def test_pair_distances_bitwise_across_backends(seed, count, code):
    rng = random.Random(seed)
    ax = [rng.uniform(-50, 50) for _ in range(count)]
    ay = [rng.uniform(-50, 50) for _ in range(count)]
    bx = [a if rng.random() < 0.2 else rng.uniform(-50, 50) for a in ax]
    by = [a if rng.random() < 0.2 else rng.uniform(-50, 50) for a in ay]
    metric = METRICS[code]
    exact = [metric((ax[k], ay[k]), (bx[k], by[k])) for k in range(count)]
    # Every worker has the one required skill, so every pair survives.
    batch = ColumnarBatch(
        [
            Worker(id=k, location=(ax[k], ay[k]), start=0.0, wait=1.0,
                   velocity=1.0, max_distance=1.0, skills=frozenset({0}))
            for k in range(count)
        ],
        [
            Task(id=k, location=(bx[k], by[k]), start=0.0, wait=1.0, skill=0)
            for k in range(count)
        ],
    )
    diagonal = list(range(count))
    _, _, got, _ = skill_candidates(batch, diagonal, diagonal, 0.0, code)
    assert got == exact  # float == float: bitwise for finite doubles


@given(st.integers(0, 10_000_000), st.sampled_from(["euclidean", "manhattan"]))
@settings(max_examples=40, deadline=None)
def test_rejection_reasons_match_scalar_oracle(seed, code):
    rng = random.Random(seed)
    workers, tasks = _population(rng, rng.randint(1, 8), rng.randint(1, 8), 150)
    batch = ColumnarBatch(workers, tasks)
    n_w, n_t = len(workers), len(tasks)
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    now = rng.choice([-math.inf, 1.0])
    codes = rejection_reasons(batch, widx, tidx, now, code)
    for k in range(len(widx)):
        worker, task = workers[widx[k]], tasks[tidx[k]]
        reason = pair_rejection_reason(worker, task, METRICS[code], now)
        assert REASON_NAMES[codes[k]] == (reason or "")


def _survivors(workers, tasks, widx, tidx, now, code):
    """The scalar oracle of a tile's skill candidates, in tile order."""
    metric = METRICS[code]
    keep = [
        k for k in range(len(widx)) if tasks[tidx[k]].skill in workers[widx[k]].skills
    ]
    pairs = [(workers[widx[k]], tasks[tidx[k]]) for k in keep]
    return (
        [widx[k] for k in keep],
        [tidx[k] for k in keep],
        [metric(w.location, t.location) for w, t in pairs],
        bytes(int(pair_feasible(w, t, metric, now)) for w, t in pairs),
    )


def _sparse_columns(rng, n_w, n_t, as_array):
    """Index-probe-shaped columns: per worker, a random task subset in
    random order (possibly empty), workers in row order."""
    widx, tidx = [], []
    for i in range(n_w):
        row = rng.sample(range(n_t), rng.randint(0, n_t))
        widx.extend([i] * len(row))
        tidx.extend(row)
    if as_array:
        return array("q", widx), array("q", tidx)
    return widx, tidx


@given(
    st.integers(0, 10_000_000),
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from(["euclidean", "manhattan"]),
    st.sampled_from([2, 3, 70, 150]),  # 70/150 force multi-word skill masks
    st.sampled_from([-math.inf, 0.0, 4.5]),
    st.sampled_from(["row", "flat", "sparse-list", "sparse-array"]),
    st.sampled_from([1, 5, 17, kernels.TILE_BLOCK_PAIRS]),  # small blocks split the tile
)
@settings(max_examples=320, deadline=None)
def test_skill_candidates_match_feasible_pairs(
    seed, n_w, n_t, code, n_skills, now, order, block
):
    """Skill candidates equal the scalar oracle's, in tile order.

    ``row`` is the dense kernel over the cross product; ``flat`` the same
    pairs as flattened columns; ``sparse-*`` index-probe-shaped columns.
    """
    rng = random.Random(seed)
    workers, tasks = _population(rng, n_w, n_t, n_skills)
    batch = ColumnarBatch(workers, tasks)
    if order.startswith("sparse"):
        widx, tidx = _sparse_columns(rng, n_w, n_t, order == "sparse-array")
    else:
        widx, tidx = dense_pair_columns(n_w, n_t)
        # The dense tile's enumeration order is row-major.
        assert list(zip(widx, tidx)) == [(i, j) for i in range(n_w) for j in range(n_t)]
    want = _survivors(workers, tasks, widx, tidx, now, code)
    with mock.patch.object(kernels, "TILE_BLOCK_PAIRS", block):
        if order == "row":
            got = skill_candidates_dense(batch, now, code)
        else:
            got = skill_candidates(batch, widx, tidx, now, code)
    cw, ct, cdists, cmask = got
    assert (cw, ct, bytes(cmask)) == (want[0], want[1], want[3])
    # Bitwise distance equality, not approximate.
    assert [d.hex() for d in cdists] == [d.hex() for d in want[2]]
    if order == "row":
        # The engine's journal feeds the reason kernel array columns.
        assert rejection_reasons(batch, widx, tidx, now, code) == rejection_reasons(
            batch, list(widx), list(tidx), now, code
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("flat", [False, True])
def test_tile_larger_than_one_block(backend, flat):
    rng = random.Random(13)
    n_w, n_t = 520, 260  # 135,200 pairs: more than one default block
    assert n_w * n_t > kernels.TILE_BLOCK_PAIRS
    workers, tasks = _population(rng, n_w, n_t, 9)
    batch = ColumnarBatch(workers, tasks)
    widx, tidx = dense_pair_columns(n_w, n_t)
    want = _survivors(workers, tasks, widx, tidx, 0.0, "euclidean")
    k = BACKENDS[backend]
    if flat:
        got = k.skill_candidates(batch, widx, tidx, 0.0, "euclidean")
    else:
        got = k.skill_candidates_dense(batch, 0.0, "euclidean")
    assert got == want
    assert len(got[0]) > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("code", ["euclidean", "manhattan"])
def test_kernels_silent_on_float_overflow(backend, code):
    """``dist / velocity`` overflowing to inf is the scalar verdict too."""
    far = (1e300, 1e300)
    workers = [
        Worker(id=0, location=(0.0, 0.0), start=0.0, wait=10.0,
               velocity=1e-300, max_distance=1e308, skills=frozenset({0})),
        Worker(id=1, location=(0.0, 0.0), start=0.0, wait=10.0,
               velocity=5e-324, max_distance=math.inf, skills=frozenset({0})),
        Worker(id=2, location=far, start=0.0, wait=10.0,
               velocity=0.0, max_distance=1.0, skills=frozenset({0})),
    ]
    tasks = [
        Task(id=0, location=(1e10, 0.0), start=0.0, wait=10.0, skill=0),
        Task(id=1, location=far, start=0.0, wait=10.0, skill=0),
    ]
    metric = METRICS[code]
    batch = ColumnarBatch(workers, tasks)
    widx, tidx = dense_pair_columns(len(workers), len(tasks))
    widx, tidx = list(widx), list(tidx)
    k = BACKENDS[backend]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sparse = k.skill_candidates(batch, widx, tidx, 0.0, code)
        dense = k.skill_candidates_dense(batch, 0.0, code)
        codes = k.rejection_reasons(batch, widx, tidx, 0.0, code)
    expect = [
        pair_feasible(workers[i], tasks[j], metric, 0.0) for i, j in zip(widx, tidx)
    ]
    # Every pair passes the skill test, so the candidates are the whole tile.
    assert sparse == dense
    assert list(zip(dense[0], dense[1])) == list(zip(widx, tidx))
    assert list(dense[3]) == [int(ok) for ok in expect]
    assert [c == 0 for c in codes] == expect
