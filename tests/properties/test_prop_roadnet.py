"""Property tests pinning the road-network queries to plain Dijkstra.

The resumable per-source searches behind ``node_distance`` and the
memoised snaps behind the free-point metric promise **bit-identical**
results — exact float equality, not approximate — on every graph the grid
generator can produce: closures, diagonals, jittered weights, disconnected
components.  ``_dijkstra`` (the untouched reference implementation) is the
oracle throughout.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import within_range
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import euclidean
from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import RoadNetwork, RoadNetworkDistance, grid_road_network

UNIT = BoundingBox(0.0, 0.0, 1.0, 1.0)

grids = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "rows": st.integers(3, 7),
        "cols": st.integers(3, 7),
        "closure_prob": st.sampled_from([0.0, 0.15, 0.35]),
        "diagonal_prob": st.sampled_from([0.0, 0.25]),
        "jitter": st.sampled_from([0.0, 0.05, 0.3]),
        "detour_factor": st.sampled_from([1.0, 1.4]),
    }
)


def _build(params):
    return grid_road_network(
        UNIT,
        params["rows"],
        params["cols"],
        rng=random.Random(params["seed"]),
        closure_prob=params["closure_prob"],
        diagonal_prob=params["diagonal_prob"],
        jitter=params["jitter"],
        detour_factor=params["detour_factor"],
    )


def _oracle(net):
    """{source: full Dijkstra labels} over every node, via the reference."""
    return {s: net._dijkstra(s) for s in range(net.num_nodes)}


@settings(max_examples=60, deadline=None)
@given(grids, st.integers(0, 1_000_000))
def test_node_distance_matches_dijkstra(params, pick_seed):
    net = _build(params)
    oracle = _oracle(net)
    pairs = [(s, t) for s in range(net.num_nodes) for t in range(net.num_nodes)]
    # Shuffled, so searches resume for targets both nearer and farther
    # than the ones they last settled.
    random.Random(pick_seed).shuffle(pairs)
    for s, t in pairs:
        expected = 0.0 if s == t else oracle[s].get(t, math.inf)
        assert net.node_distance(s, t) == expected


@settings(max_examples=60, deadline=None)
@given(grids, st.integers(0, 1_000_000))
def test_source_target_grid_matches_dijkstra(params, pick_seed):
    # A batch of sources x targets, as a feasibility build asks them:
    # each source's search resumes target after target.
    net = _build(params)
    oracle = _oracle(net)
    rng = random.Random(pick_seed)
    n = net.num_nodes
    sources = sorted({rng.randrange(n) for _ in range(4)})
    targets = sorted({rng.randrange(n) for _ in range(5)})
    for s in sources:
        for t in targets:
            expected = 0.0 if s == t else oracle[s].get(t, math.inf)
            assert net.node_distance(s, t) == expected


@settings(max_examples=60, deadline=None)
@given(grids, st.integers(0, 1_000_000))
def test_reach_decision_matches_dijkstra(params, pick_seed):
    # The range check reads the same distance the reference search gives:
    # snap both points, add the full-Dijkstra label between their nodes.
    net = _build(params)
    metric = RoadNetworkDistance(net)
    rng = random.Random(pick_seed)
    for _ in range(12):
        a = (rng.random(), rng.random())
        b = (rng.random(), rng.random())
        budget = rng.random() * 3.0
        na, nb = net.nearest_node(a), net.nearest_node(b)
        snap_a = euclidean(a, net.coordinates(na))
        snap_b = euclidean(b, net.coordinates(nb))
        if na == nb:
            expected = max(euclidean(a, b), abs(snap_a - snap_b))
        else:
            expected = snap_a + net._dijkstra(na).get(nb, math.inf) + snap_b
        worker = Worker(id=0, location=a, start=0.0, wait=1.0, velocity=1.0,
                        max_distance=budget, skills=frozenset({0}))
        task = Task(id=0, location=b, start=0.0, wait=1.0, skill=0)
        assert metric(a, b) == expected
        assert within_range(worker, task, metric) == (expected <= budget)


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(0, 1_000_000))
def test_memoised_metric_matches_fresh_calls(params, pick_seed):
    metric = RoadNetworkDistance(_build(params))
    rng = random.Random(pick_seed)
    points = [(rng.random(), rng.random()) for _ in range(6)]
    pairs = [(a, b) for a in points[:3] for b in points]
    # Two shuffled passes: the second reads every snap from the memo.
    for _ in range(2):
        rng.shuffle(pairs)
        for a, b in pairs:
            # A second network, so each reference call snaps and searches
            # from scratch.
            assert metric(a, b) == RoadNetworkDistance(_build(params))(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_disconnected_components_are_infinite(seed, islands):
    # Several disjoint 2-node islands: every cross-island query is inf,
    # every intra-island query is the edge weight.
    rng = random.Random(seed)
    nodes, edges = {}, []
    for i in range(islands):
        a, b = 2 * i, 2 * i + 1
        nodes[a] = (float(i), 0.0)
        nodes[b] = (float(i), 0.5 + rng.random())
        edges.append((a, b))
    net = RoadNetwork(nodes, edges)
    for s in nodes:
        for t in nodes:
            d = net.node_distance(s, t)
            if s == t:
                assert d == 0.0
            elif s // 2 == t // 2:
                assert d == net._adjacency[s][0][1]
            else:
                assert d == math.inf
            # Points on the nodes snap to them with zero legs.
            assert net.distance(nodes[s], nodes[t]) == d
