"""Unit tests for the columnar kernels: edge semantics and selection.

The numpy kernels are the only implementation; tests parametrized over
``backend`` run them (``numpy``) against the scalar predicates of
:mod:`repro.core.constraints` and the metrics.  The skill-first kernels
return only the pairs that pass the skill test, so the oracle checks both
which pairs survive and the verdict of each survivor.
"""

import math

import pytest

import repro.columnar as columnar
from repro.columnar import (
    CODES,
    ColumnarBatch,
    columnar_code_for,
    skill_candidates,
)
from repro.core.constraints import pair_feasible
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import EuclideanDistance, ManhattanDistance

pytest.importorskip("numpy")

BACKENDS = {"numpy": columnar}


def _worker(i, *, location=(0.0, 0.0), velocity=1.0, start=0.0, wait=10.0,
            max_distance=100.0, skills=(0,)):
    return Worker(
        id=i, location=location, start=start, wait=wait, velocity=velocity,
        max_distance=max_distance, skills=frozenset(skills),
    )


def _task(j, *, location=(3.0, 4.0), start=0.0, wait=10.0, skill=0):
    return Task(id=j, location=location, start=start, wait=wait, skill=skill)


def _flat(batch):
    n_w, n_t = batch.n_workers, batch.n_tasks
    return [i for i in range(n_w) for _ in range(n_t)], list(range(n_t)) * n_w


class TestBackendPlumbing:
    def test_codes_cover_planar_metrics(self):
        assert EuclideanDistance().columnar_code in CODES
        assert ManhattanDistance().columnar_code in CODES

    def test_unknown_code_rejected(self):
        class Chebyshev(EuclideanDistance):
            columnar_code = "chebyshev"

        assert columnar_code_for(Chebyshev()) is None


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeSemantics:
    """The scalar oracle's edge cases, replicated pair for pair."""

    def _verdicts(self, workers, tasks, now, code, backend):
        """The full tile's 0/1 verdicts, checked pair for pair."""
        batch = ColumnarBatch(workers, tasks)
        widx, tidx = _flat(batch)
        cand_w, cand_t, dists, cmask = BACKENDS[backend].skill_candidates(
            batch, widx, tidx, now, code
        )
        metric = {"euclidean": EuclideanDistance(), "manhattan": ManhattanDistance()}[code]
        survivors = [
            k for k in range(len(widx)) if tasks[tidx[k]].skill in workers[widx[k]].skills
        ]
        assert cand_w == [widx[k] for k in survivors]
        assert cand_t == [tidx[k] for k in survivors]
        mask = bytearray(len(widx))
        for pos, k in enumerate(survivors):
            mask[k] = cmask[pos]
            w, t = workers[widx[k]], tasks[tidx[k]]
            assert dists[pos] == metric(w.location, t.location)
        for k in range(len(widx)):
            w, t = workers[widx[k]], tasks[tidx[k]]
            assert bool(mask[k]) == pair_feasible(w, t, metric, now), (w, t)
        return bytes(mask)

    def test_zero_velocity_zero_distance_is_feasible(self, backend):
        workers = [_worker(0, velocity=0.0, location=(1.0, 1.0))]
        tasks = [_task(0, location=(1.0, 1.0))]
        mask = self._verdicts(workers, tasks, -math.inf, "euclidean", backend)
        assert mask == b"\x01"

    def test_zero_velocity_positive_distance_is_infeasible(self, backend):
        workers = [_worker(0, velocity=0.0)]
        tasks = [_task(0)]
        mask = self._verdicts(workers, tasks, -math.inf, "euclidean", backend)
        assert mask == b"\x00"

    @pytest.mark.parametrize("code", ["euclidean", "manhattan"])
    def test_zero_velocity_never_reaches_a_task_that_never_expires(self, backend, code):
        # The division's inf arrival would pass an infinite deadline.
        workers = [_worker(0, velocity=0.0, wait=math.inf)]
        tasks = [_task(0, wait=math.inf), _task(1, location=(0.0, 0.0), wait=math.inf)]
        mask = self._verdicts(workers, tasks, 1.0, code, backend)
        assert mask == b"\x00\x01"
        batch = ColumnarBatch(workers, tasks)
        reasons = BACKENDS[backend].rejection_reasons(batch, [0, 0], [0, 1], 1.0, code)
        assert reasons == bytes([columnar.REASON_DEADLINE, columnar.REASON_FEASIBLE])

    def test_empty_skills_reject_everything(self, backend):
        workers = [_worker(0, skills=())]
        tasks = [_task(0)]
        batch = ColumnarBatch(workers, tasks)
        # No pair passes the skill test, so no candidate survives.
        assert BACKENDS[backend].skill_candidates(
            batch, [0], [0], 0.0, "euclidean"
        ) == ([], [], [], b"")
        assert self._verdicts(workers, tasks, 0.0, "euclidean", backend) == b"\x00"

    def test_now_minus_inf_matches_static_oracle(self, backend):
        workers = [_worker(0, start=4.0, wait=2.0)]
        tasks = [_task(0, start=0.0, wait=3.0, location=(0.5, 0.0))]
        self._verdicts(workers, tasks, -math.inf, "euclidean", backend)

    def test_now_after_deadline_rejects(self, backend):
        workers = [_worker(0)]
        tasks = [_task(0, location=(0.1, 0.0))]
        mask = self._verdicts(workers, tasks, 50.0, "euclidean", backend)
        assert mask == b"\x00"

    def test_manhattan_and_reach_boundary(self, backend):
        # dist exactly equal to max_distance stays feasible (<=, not <).
        workers = [_worker(0, max_distance=7.0)]
        tasks = [_task(0, location=(3.0, 4.0))]
        mask = self._verdicts(workers, tasks, 0.0, "manhattan", backend)
        assert mask == b"\x01"

    def test_length_mismatch_raises(self, backend):
        batch = ColumnarBatch([_worker(0)], [_task(0)])
        with pytest.raises(ValueError):
            BACKENDS[backend].skill_candidates(batch, [0, 0], [0], 0.0, "euclidean")

    def test_empty_tile(self, backend):
        batch = ColumnarBatch([_worker(0)], [_task(0)])
        assert BACKENDS[backend].skill_candidates(batch, [], [], 0.0, "euclidean") == (
            [], [], [], b""
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_true_positions(backend):
    kernels = BACKENDS[backend]
    assert kernels.true_positions(b"\x01\x00\x01\x01\x00") == [0, 2, 3]
    assert kernels.true_positions(b"") == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("code", CODES)
def test_dense_variants_consistent(backend, code):
    kernels = BACKENDS[backend]
    workers = [
        _worker(0, location=(0.0, 0.0), skills=(0, 1)),
        _worker(1, location=(9.0, 9.0), skills=()),
        _worker(2, location=(1.0, 0.0), velocity=0.0, skills=(1,)),
    ]
    tasks = [
        _task(0, location=(1.0, 0.0), skill=1),
        _task(1, location=(5.0, 5.0), skill=0),
        _task(2, location=(0.0, 0.0), skill=2),
    ]
    batch = ColumnarBatch(workers, tasks)
    widx, tidx = _flat(batch)
    dense = kernels.skill_candidates_dense(batch, 0.0, code)
    assert dense == kernels.skill_candidates(batch, widx, tidx, 0.0, code)
    cw, ct, cdists, cmask = dense
    metric = {"euclidean": EuclideanDistance(), "manhattan": ManhattanDistance()}[code]
    skilled = [
        (i, j) for i, j in zip(widx, tidx) if tasks[j].skill in workers[i].skills
    ]
    assert list(zip(cw, ct)) == skilled
    assert cdists == [metric(workers[i].location, tasks[j].location) for i, j in skilled]
    assert [(cw[k], ct[k]) for k in kernels.true_positions(cmask)] == [
        (i, j) for i, j in skilled if pair_feasible(workers[i], tasks[j], metric, 0.0)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_pair_distances_matches_scalar_metrics(backend):
    points = [(0.0, 0.0), (1.5, -2.5), (1e-9, 1e9), (3.0, 4.0)]
    ax = [a[0] for a in points]
    ay = [a[1] for a in points]
    bx = list(reversed(ax))
    by = list(reversed(ay))
    workers = [_worker(k, location=(ax[k], ay[k])) for k in range(len(points))]
    tasks = [_task(k, location=(bx[k], by[k])) for k in range(len(points))]
    batch = ColumnarBatch(workers, tasks)
    diagonal = list(range(len(points)))
    for code, metric in (
        ("euclidean", EuclideanDistance()),
        ("manhattan", ManhattanDistance()),
    ):
        # Every worker has skill 0 and every task needs it: all survive.
        _, _, got, _ = BACKENDS[backend].skill_candidates(
            batch, diagonal, diagonal, 0.0, code
        )
        exact = [
            metric((ax[k], ay[k]), (bx[k], by[k])) for k in range(len(points))
        ]
        assert got == exact


def test_kernel_counters_increment():
    from repro.obs.metrics import REGISTRY

    batch = ColumnarBatch([_worker(0)], [_task(0)])
    pairs_before = REGISTRY.counter("columnar_kernel_pairs").value
    calls_before = REGISTRY.counter("columnar_kernel_calls").value
    skill_candidates(batch, [0], [0], 0.0, "euclidean")
    assert REGISTRY.counter("columnar_kernel_pairs").value == pairs_before + 1
    assert REGISTRY.counter("columnar_kernel_calls").value == calls_before + 1


def test_kernels_need_numpy(monkeypatch):
    from tests.reference import without_numpy

    without_numpy(monkeypatch)
    assert columnar_code_for(EuclideanDistance()) is None
    batch = ColumnarBatch([_worker(0)], [_task(0)])
    with pytest.raises(RuntimeError, match="numpy"):
        skill_candidates(batch, [0], [0], 0.0, "euclidean")
