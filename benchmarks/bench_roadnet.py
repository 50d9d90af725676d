"""Road-network distance queries: exact floats, wall time and settling.

One 64x64 jittered street grid (4096 nodes) answers a batch workload of
|S| x |T| = 288 node pairs with ``node_distance``, pair by pair, on a fresh
network: each source's search resumes from the state its previous target
left.  Every float must equal (exact ``==``) the reference full
``_dijkstra``'s.  The wall time and settled count are recorded in the
trajectory file under ``roadnet_bounded_64``; the name is kept from when
the point queries were goal-bounded, so the series stays continuous.
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


def run_points(net, pairs):
    """Per-pair ``node_distance``; returns (values, settled delta, wall_ms)."""
    before = net.settled_nodes
    started = time.perf_counter()
    values = {(s, t): net.node_distance(s, t) for s, t in pairs}
    wall_ms = (time.perf_counter() - started) * 1000.0
    return values, net.settled_nodes - before, wall_ms


def test_roadnet_point_queries_64(record_bench_json):
    reference = make_network()
    sources, targets = workload(reference)
    pairs = [(s, t) for s in sources for t in targets]
    full = {s: reference._dijkstra(s) for s in sources}
    truth = {(s, t): (0.0 if s == t else full[s].get(t, math.inf)) for s, t in pairs}

    points, points_settled, points_ms = run_points(make_network(), pairs)
    assert points == truth  # bit-identical floats

    record_bench_json(
        "roadnet_bounded_64",
        ROADNET_CONFIG,
        points_ms,
        {"pairs": len(pairs), "nodes": reference.num_nodes,
         "point_settled": points_settled},
    )
