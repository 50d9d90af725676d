"""Road-network distance queries: exact floats, wall time and settling.

One 64x64 jittered street grid (4096 nodes) answers a batch workload of
|S| x |T| = 288 node pairs two ways, each on a fresh network:

* **table** — ``distance_table``: one resumed search per distinct source,
  stopped once that source's targets are settled;
* **point queries** — ``node_distance`` pair by pair, resuming the same
  per-source states.

Both must return floats bit-identical (exact ``==``) to the reference full
``_dijkstra``.  Wall times and settled counts are recorded in the
trajectory file under ``roadnet_table_64`` and ``roadnet_bounded_64``; the
second name is kept from when the point queries were goal-bounded, so the
series stays continuous.
"""

import math
import random
import time

from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import grid_road_network

_ROWS = _COLS = 64
_SEED = 7
_N_SOURCES = 12
_N_TARGETS = 24

ROADNET_CONFIG = {
    "grid": f"{_ROWS}x{_COLS} seed={_SEED} closure=0.1 diagonal=0.1 jitter=0.2",
    "sources": _N_SOURCES,
    "targets": _N_TARGETS,
    "family": "repro.bench/roadnet/v1",
}


def make_network():
    """The bench substrate: a jittered 64x64 grid with closures + diagonals."""
    return grid_road_network(
        BoundingBox(0.0, 0.0, 1.0, 1.0),
        _ROWS,
        _COLS,
        rng=random.Random(_SEED),
        closure_prob=0.1,
        diagonal_prob=0.1,
        jitter=0.2,
    )


def workload(net):
    """Deterministic spread of |S| sources and |T| targets over the grid."""
    n = net.num_nodes
    sources = list(range(0, n, n // _N_SOURCES))[:_N_SOURCES]
    targets = list(range(1, n, n // _N_TARGETS))[:_N_TARGETS]
    return sources, targets


def run_table(net, sources, targets):
    """The many-to-many query; returns (table, settled delta, wall_ms)."""
    before = net.settled_nodes
    started = time.perf_counter()
    table = net.distance_table(sources, targets)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return table, net.settled_nodes - before, wall_ms


def run_points(net, pairs):
    """Per-pair ``node_distance``; returns (values, settled delta, wall_ms)."""
    before = net.settled_nodes
    started = time.perf_counter()
    values = {(s, t): net.node_distance(s, t) for s, t in pairs}
    wall_ms = (time.perf_counter() - started) * 1000.0
    return values, net.settled_nodes - before, wall_ms


def test_roadnet_kernels_64(record_bench_json):
    reference = make_network()
    sources, targets = workload(reference)
    pairs = [(s, t) for s in sources for t in targets]
    full = {s: reference._dijkstra(s) for s in sources}
    truth = {(s, t): (0.0 if s == t else full[s].get(t, math.inf)) for s, t in pairs}

    table, table_settled, table_ms = run_table(make_network(), sources, targets)
    assert table == truth  # bit-identical floats
    points, points_settled, points_ms = run_points(make_network(), pairs)
    assert points == truth

    counters = {"pairs": len(pairs), "nodes": reference.num_nodes}
    record_bench_json(
        "roadnet_table_64",
        ROADNET_CONFIG,
        table_ms,
        dict(counters, table_settled=table_settled),
    )
    record_bench_json(
        "roadnet_bounded_64",
        ROADNET_CONFIG,
        points_ms,
        dict(counters, point_settled=points_settled),
    )
