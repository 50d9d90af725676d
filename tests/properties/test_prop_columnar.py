"""Property tests pinning the columnar kernels to the scalar oracle.

The exactness contract of :mod:`repro.columnar.kernels` is *bitwise*
equality with :func:`repro.core.constraints.pair_feasible` — decisions AND
distances.  These tests generate adversarial populations
(zero-velocity workers, coincident locations, empty skill sets, skill
universes wider than one packed 64-bit word, ``now = -inf``) and compare
every kernel against the scalar predicate float for float;
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
    feasible_dense,
    feasible_pairs,
    rejection_reasons,
    rejection_reasons_dense,
    skill_candidates,
    skill_candidates_dense,
    true_positions,
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
    rng = random.Random(seed)
    workers, tasks = _population(rng, n_w, n_t, n_skills)
    metric = METRICS[code]
    batch = ColumnarBatch(workers, tasks)
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    mask, skill_mask, dists = feasible_pairs(
        batch, widx, tidx, now, code
    )
    for k in range(len(widx)):
        worker, task = workers[widx[k]], tasks[tidx[k]]
        assert bool(skill_mask[k]) == (task.skill in worker.skills)
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
    mask, skill_mask, dists = feasible_pairs(
        batch, widx, tidx, now, code
    )

    dense = feasible_dense(batch, now, code)
    assert dense == [(widx[k], tidx[k]) for k in true_positions(mask)]

    cw, ct, cdists, cmask = skill_candidates_dense(batch, now, code)
    expect = [k for k in range(len(widx)) if skill_mask[k]]
    assert cw == [widx[k] for k in expect]
    assert ct == [tidx[k] for k in expect]
    assert cdists == [dists[k] for k in expect]
    assert bytes(cmask) == bytes(mask[k] for k in expect)


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
    batch = ColumnarBatch(
        [
            Worker(id=k, location=(ax[k], ay[k]), start=0.0, wait=1.0,
                   velocity=1.0, max_distance=1.0, skills=frozenset())
            for k in range(count)
        ],
        [
            Task(id=k, location=(bx[k], by[k]), start=0.0, wait=1.0, skill=0)
            for k in range(count)
        ],
    )
    diagonal = list(range(count))
    _, _, got = feasible_pairs(batch, diagonal, diagonal, 0.0, code)
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


def _survivors(batch, widx, tidx, now, code, impl=columnar):
    """The oracle: ``feasible_pairs`` over the whole tile, skill-filtered."""
    mask, skill_mask, dists = impl.feasible_pairs(
        batch, list(widx), list(tidx), now, code
    )
    keep = [k for k in range(len(widx)) if skill_mask[k]]
    return (
        [widx[k] for k in keep],
        [tidx[k] for k in keep],
        [dists[k] for k in keep],
        bytes(mask[k] for k in keep),
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
    st.sampled_from(["row", "task", "sparse-list", "sparse-array"]),
    st.sampled_from([1, 5, 17, kernels.TILE_BLOCK_PAIRS]),  # small blocks split the tile
)
@settings(max_examples=200, deadline=None)
def test_skill_candidates_match_feasible_pairs(
    seed, n_w, n_t, code, n_skills, now, order, block
):
    rng = random.Random(seed)
    workers, tasks = _population(rng, n_w, n_t, n_skills)
    batch = ColumnarBatch(workers, tasks)
    if order.startswith("sparse"):
        widx, tidx = _sparse_columns(rng, n_w, n_t, order == "sparse-array")
    else:
        widx, tidx = dense_pair_columns(n_w, n_t, task_major=order == "task")
    want = _survivors(batch, widx, tidx, now, code)
    with mock.patch.object(kernels, "TILE_BLOCK_PAIRS", block):
        if order.startswith("sparse"):
            got = skill_candidates(batch, widx, tidx, now, code)
        else:
            got = skill_candidates_dense(
                batch, now, code, task_major=order == "task"
            )
    cw, ct, cdists, cmask = got
    assert (cw, ct, bytes(cmask)) == (want[0], want[1], want[3])
    # Bitwise distance equality, not approximate.
    assert [d.hex() for d in cdists] == [d.hex() for d in want[2]]
    if not order.startswith("sparse"):
        # The dense tile's enumeration order is row- or task-major.
        if order == "task":
            pairs = [(i, j) for j in range(n_t) for i in range(n_w)]
        else:
            pairs = [(i, j) for i in range(n_w) for j in range(n_t)]
        assert list(zip(widx, tidx)) == pairs
        reasons = rejection_reasons_dense(
            batch, now, code, task_major=order == "task"
        )
        assert reasons == rejection_reasons(
            batch, list(widx), list(tidx), now, code
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("task_major", [False, True])
def test_tile_larger_than_one_block(backend, task_major):
    rng = random.Random(13)
    n_w, n_t = 520, 260  # 135,200 pairs: more than one default block
    assert n_w * n_t > kernels.TILE_BLOCK_PAIRS
    workers, tasks = _population(rng, n_w, n_t, 9)
    batch = ColumnarBatch(workers, tasks)
    widx, tidx = dense_pair_columns(n_w, n_t, task_major=task_major)
    want = _survivors(batch, widx, tidx, 0.0, "euclidean", BACKENDS[backend])
    got = BACKENDS[backend].skill_candidates_dense(
        batch, 0.0, "euclidean", task_major=task_major
    )
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
        mask, _, _ = k.feasible_pairs(batch, widx, tidx, 0.0, code)
        sparse = k.skill_candidates(batch, widx, tidx, 0.0, code)
        dense = k.skill_candidates_dense(batch, 0.0, code)
        task_major = k.skill_candidates_dense(
            batch, 0.0, code, task_major=True
        )
        pairs = k.feasible_dense(batch, 0.0, code)
        codes = k.rejection_reasons(batch, widx, tidx, 0.0, code)
    expect = [
        pair_feasible(workers[i], tasks[j], metric, 0.0) for i, j in zip(widx, tidx)
    ]
    assert [bool(bit) for bit in mask] == expect
    assert list(sparse[3]) == list(dense[3]) == [int(ok) for ok in expect]
    assert sorted(zip(task_major[0], task_major[1])) == sorted(zip(dense[0], dense[1]))
    assert pairs == [(widx[k], tidx[k]) for k in range(len(expect)) if expect[k]]
    assert [c == 0 for c in codes] == expect
