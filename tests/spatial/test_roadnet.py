"""Road-network substrate tests."""

import math
import random

import pytest

from repro.core.constraints import pair_feasible, pair_rejection_reason
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import euclidean
from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import RoadNetwork, RoadNetworkDistance, grid_road_network

UNIT = BoundingBox(0.0, 0.0, 1.0, 1.0)


def square_network():
    """A unit square: 4 corners, 4 sides (no diagonal)."""
    nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return RoadNetwork(nodes, edges)


class TestRoadNetwork:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            RoadNetwork({})

    def test_edge_validation(self):
        net = RoadNetwork({0: (0, 0), 1: (1, 0)})
        with pytest.raises(ValueError, match="unknown node"):
            net.add_edge(0, 7)
        with pytest.raises(ValueError, match="non-positive edge weight"):
            net.add_edge(0, 1, weight=-1.0)
        # The docstring always promised positive weights; zero is now
        # rejected too instead of silently corrupting shortest paths.
        with pytest.raises(ValueError, match="non-positive edge weight"):
            net.add_edge(0, 1, weight=0.0)
        with pytest.raises(ValueError, match="non-positive edge weight"):
            RoadNetwork({0: (0, 0), 1: (1, 0)}, [(0, 1, 0.0)])

    def test_default_weight_is_length(self):
        net = square_network()
        assert net.node_distance(0, 1) == pytest.approx(1.0)

    def test_shortest_path_goes_around(self):
        net = square_network()
        # opposite corners: no diagonal, so two sides
        assert net.node_distance(0, 2) == pytest.approx(2.0)

    def test_diagonal_shortcut_used(self):
        net = square_network()
        net.add_edge(0, 2, weight=math.sqrt(2.0))
        assert net.node_distance(0, 2) == pytest.approx(math.sqrt(2.0))

    def test_disconnected_is_infinite(self):
        net = RoadNetwork({0: (0, 0), 1: (1, 0), 2: (5, 5)}, [(0, 1)])
        assert net.node_distance(0, 2) == math.inf
        assert not net.is_connected()

    def test_nearest_node(self):
        net = square_network()
        assert net.nearest_node((0.1, 0.05)) == 0
        assert net.nearest_node((0.9, 0.95)) == 2

    def test_counts(self):
        net = square_network()
        assert net.num_nodes == 4
        assert net.num_edges == 4

    def test_cache_invalidated_by_new_edges(self):
        net = square_network()
        assert net.node_distance(0, 2) == pytest.approx(2.0)
        net.add_edge(0, 2, weight=0.5)
        assert net.node_distance(0, 2) == pytest.approx(0.5)

    def test_cache_size_validated(self):
        with pytest.raises(ValueError, match="cache_size"):
            RoadNetwork({0: (0, 0)}, cache_size=0)

    def test_stats_keys(self):
        net = square_network()
        net.distance((0.0, 0.0), (1.0, 1.0))
        assert set(net.stats()) == {"settled_nodes", "cache_evictions"}


class TestSearchCache:
    """Bounded FIFO eviction instead of wholesale clears."""

    def _line(self, n=6, **kw):
        nodes = {i: (float(i), 0.0) for i in range(n)}
        edges = [(i, i + 1) for i in range(n - 1)]
        return RoadNetwork(nodes, edges, **kw)

    def test_fifo_evicts_oldest_source(self):
        net = self._line(cache_size=2)
        net.node_distance(0, 5)
        net.node_distance(1, 5)
        net.node_distance(2, 5)  # evicts source 0
        assert net.cache_evictions == 1
        assert 0 not in net._states and {1, 2} <= set(net._states)

    def test_fifo_does_not_refresh(self):
        net = self._line(cache_size=2)
        net.node_distance(0, 5)
        net.node_distance(1, 5)
        net.node_distance(0, 4)  # hit, but FIFO keeps insertion order
        net.node_distance(2, 5)  # evicts source 0
        assert 0 not in net._states and {1, 2} <= set(net._states)

    def test_eviction_keeps_answers_correct(self):
        net = self._line(cache_size=1)
        for source in (0, 3, 1, 4, 0, 2):
            assert net.node_distance(source, 5) == pytest.approx(float(5 - source))
        assert net.cache_evictions >= 4

    def test_resumed_search_matches_full_dijkstra(self):
        net = grid_road_network(UNIT, 5, 5, rng=random.Random(3),
                                closure_prob=0.2)
        full = net._dijkstra(0)
        for target in range(net.num_nodes):
            assert net.node_distance(0, target) == full.get(target, math.inf)


class TestPointQueries:
    """Batches of node pairs answered one ``node_distance`` call at a time."""

    def test_cross_product_matches_dijkstra(self):
        net = grid_road_network(UNIT, 5, 5, rng=random.Random(7),
                                closure_prob=0.15, jitter=0.05)
        sources, targets = [0, 3, 12], [4, 12, 20, 24]
        for s in sources:
            reference = net._dijkstra(s)
            for t in targets:
                expected = 0.0 if s == t else reference.get(t, math.inf)
                assert net.node_distance(s, t) == expected

    def test_pair_list_matches_dijkstra(self):
        net = grid_road_network(UNIT, 5, 5, rng=random.Random(8), jitter=0.1)
        for s, t in [(0, 24), (24, 0), (7, 7), (3, 19)]:
            expected = 0.0 if s == t else net._dijkstra(s)[t]
            assert net.node_distance(s, t) == expected
        assert net.node_distance(7, 7) == 0.0
        assert net.node_distance(0, 24) == net.node_distance(24, 0)

    def test_metric_matches_snap_walk_unsnap(self):
        net = grid_road_network(UNIT, 6, 6, rng=random.Random(2),
                                diagonal_prob=0.3, jitter=0.1)
        metric = RoadNetworkDistance(net)
        rng = random.Random(3)
        pts = [(rng.random(), rng.random()) for _ in range(8)]
        for a in pts:
            for b in pts[:4]:
                na, nb = net.nearest_node(a), net.nearest_node(b)
                snap_a = euclidean(a, net.coordinates(na))
                snap_b = euclidean(b, net.coordinates(nb))
                if na == nb:
                    expected = max(euclidean(a, b), abs(snap_a - snap_b))
                else:
                    expected = snap_a + net._dijkstra(na)[nb] + snap_b
                assert metric(a, b) == expected

    def test_counters_move(self):
        net = grid_road_network(UNIT, 4, 4)
        for s in (0, 1):
            for t in (14, 15):
                net.node_distance(s, t)
        assert net.settled_nodes > 0
        assert len(net._states) == 2

    def test_shared_states_match_fresh_networks(self):
        # One network resumes its states across all pairs; each reference
        # answer comes from a network that has never searched before.
        def build():
            return grid_road_network(UNIT, 7, 7, rng=random.Random(13),
                                     closure_prob=0.2, jitter=0.2)

        shared = build()
        sources = list(range(0, shared.num_nodes, 4))
        targets = list(range(1, shared.num_nodes, 6))
        for s in sources:
            for t in targets:
                assert shared.node_distance(s, t) == build().node_distance(s, t)


class TestSnapMemo:
    """``RoadNetwork.distance`` snaps each distinct free point once."""

    @staticmethod
    def _count_snaps(net):
        calls = []
        snap = net.nearest_node

        def counting(point):
            calls.append(point)
            return snap(point)

        net.nearest_node = counting
        return calls

    def test_each_point_snapped_once(self):
        net = _grid(5, jitter=0.1)
        calls = self._count_snaps(net)
        rng = random.Random(6)
        pts = [(rng.random(), rng.random()) for _ in range(7)]
        first = {(a, b): net.distance(a, b) for a in pts for b in pts}
        assert sorted(calls) == sorted(pts)
        # Repeat queries hit the memo and return the same floats.
        assert {(a, b): net.distance(a, b) for a in pts for b in pts} == first
        assert len(calls) == len(pts)

    def test_memo_holds_the_nearest_node_and_its_leg(self):
        net = _grid(8, diagonal_prob=0.2)
        a, b = (0.13, 0.71), (0.88, 0.05)
        net.distance(a, b)
        for point in (a, b):
            node = net.nearest_node(point)
            assert net._snapped[point] == (
                node, euclidean(point, net.coordinates(node))
            )

    def test_memoised_answers_match_a_fresh_network(self):
        rng = random.Random(12)
        pts = [(rng.random(), rng.random()) for _ in range(6)]
        warm = _grid(12, closure_prob=0.2, jitter=0.1)
        for a in pts:
            for b in pts:
                warm.distance(a, b)
        for a in pts:
            for b in pts:
                assert warm.distance(a, b) == _grid(
                    12, closure_prob=0.2, jitter=0.1
                ).distance(a, b)


def _grid(seed, rows=6, cols=6, **kw):
    return grid_road_network(UNIT, rows, cols, rng=random.Random(seed), **kw)


class TestHandCheckedGraphs:
    """Small graphs whose shortest paths can be checked by hand."""

    def test_line_graph_sums_the_path(self):
        nodes = {i: (float(i), 0.0) for i in range(4)}
        net = RoadNetwork(nodes, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
        assert net.node_distance(0, 3) == (1.0 + 2.0) + 4.0
        assert net.node_distance(3, 0) == net.node_distance(0, 3)

    def test_triangle_takes_the_shorter_side(self):
        nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 1.0)}
        net = RoadNetwork(nodes, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.5)])
        assert net.node_distance(1, 2) == 0.5
        assert net.node_distance(0, 2) == 1.0

    def test_self_loops_ignored(self):
        net = RoadNetwork({0: (0.0, 0.0), 1: (1.0, 0.0)},
                          [(0, 0, 5.0), (0, 1, 1.0), (1, 1, 2.0)])
        assert net.node_distance(0, 1) == 1.0
        assert net.node_distance(0, 0) == 0.0

    def test_same_node_zero(self):
        net = _grid(3)
        assert net.node_distance(5, 5) == 0.0
        assert net._dijkstra(5)[5] == 0.0
        at_node = net.coordinates(5)
        assert net.distance(at_node, at_node) == 0.0

    def test_disconnected_is_infinite_both_ways(self):
        net = RoadNetwork({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 5.0)},
                          [(0, 1, 1.0)])
        assert net.node_distance(0, 2) == math.inf
        assert net.node_distance(2, 1) == math.inf
        answers = {(s, t): net.node_distance(s, t) for s in (0, 2) for t in (1, 2)}
        assert answers == {
            (0, 1): 1.0, (0, 2): math.inf, (2, 1): math.inf, (2, 2): 0.0,
        }

    @pytest.mark.parametrize("kw", [
        {},
        {"closure_prob": 0.25},
        {"diagonal_prob": 0.3},
        {"jitter": 0.15},
        {"closure_prob": 0.2, "diagonal_prob": 0.2, "jitter": 0.1},
    ])
    def test_matches_plain_dijkstra(self, kw):
        net = _grid(7, **kw)
        for source in range(0, net.num_nodes, 7):
            reference = net._dijkstra(source)
            for target in range(net.num_nodes):
                assert net.node_distance(source, target) == reference.get(
                    target, math.inf
                )

    def test_many_sources_to_one_target_match_fresh_queries(self):
        shared = _grid(9, jitter=0.2)
        last = shared.num_nodes - 1
        sources = list(range(0, shared.num_nodes, 5))
        answers = {source: shared.node_distance(source, last) for source in sources}
        for source in sources:
            assert answers[source] == _grid(9, jitter=0.2).node_distance(
                source, last
            )
            assert answers[source] == shared._dijkstra(source)[last]

    def test_settled_counter_moves(self):
        net = _grid(4)
        assert net.settled_nodes == 0
        net.node_distance(0, net.num_nodes - 1)
        first = net.settled_nodes
        assert 0 < first <= net.num_nodes
        # A second query from the same source resumes and settles nothing new.
        net.node_distance(0, net.num_nodes - 2)
        assert net.settled_nodes == first

    def test_one_slot_cache_still_exact(self):
        # Evicting on every new source costs searches, never exactness.
        grid = _grid(11, closure_prob=0.2, jitter=0.1)
        edges = [(u, v, w) for u, nbrs in grid._adjacency.items()
                 for v, w in nbrs if u < v]
        nodes = {n: grid.coordinates(n) for n in range(grid.num_nodes)}
        tiny = RoadNetwork(nodes, edges, cache_size=1)
        for s, t in [(0, 35), (3, 20), (17, 2), (35, 0), (0, 20)]:
            assert tiny.node_distance(s, t) == tiny._dijkstra(s).get(t, math.inf)
        assert tiny.cache_evictions == 4


class TestAddEdge:
    def test_add_edge_resets_search_states(self):
        net = _grid(19)
        far = net.num_nodes - 1
        before = net.node_distance(0, far)
        settled = net.settled_nodes
        net.add_edge(0, far, weight=1e-3)
        assert net.node_distance(0, far) == 1e-3 < before
        # Counters survive the reset; the fresh search adds to them.
        assert net.settled_nodes > settled

    def test_answers_after_add_edge_match_a_fresh_network(self):
        grown = _grid(21, jitter=0.1)
        sources = [0, 7, 20]
        targets = [35, 14, 3]
        for s in sources:
            for t in targets:
                grown.node_distance(s, t)  # warm the states
        grown.add_edge(0, 35, weight=0.05)
        grown.add_edge(7, 20)
        fresh = _grid(21, jitter=0.1)
        fresh.add_edge(0, 35, weight=0.05)
        fresh.add_edge(7, 20)
        for s in sources:
            for t in targets:
                assert grown.node_distance(s, t) == fresh.node_distance(s, t)
        for s in sources:
            reference = fresh._dijkstra(s)
            for t in targets:
                assert grown.node_distance(s, t) == reference.get(t, math.inf)

    def test_snap_memo_survives_add_edge(self):
        # Nodes never move, so snaps memoised before add_edge stay valid:
        # the grown network gives a fresh network's answers without
        # snapping a point again.
        rng = random.Random(22)
        # Two points by the far corners the new shortcut joins.
        pts = [(0.02, 0.03), (0.97, 0.99)]
        pts += [(rng.random(), rng.random()) for _ in range(6)]
        grown = _grid(23, closure_prob=0.2, jitter=0.1)
        before = {(a, b): grown.distance(a, b) for a in pts for b in pts}
        memo = dict(grown._snapped)
        assert set(memo) == set(pts)
        grown.add_edge(0, 35, weight=0.05)
        grown.add_edge(3, 32)
        fresh = _grid(23, closure_prob=0.2, jitter=0.1)
        fresh.add_edge(0, 35, weight=0.05)
        fresh.add_edge(3, 32)
        calls = TestSnapMemo._count_snaps(grown)
        after = {(a, b): grown.distance(a, b) for a in pts for b in pts}
        assert after == {(a, b): fresh.distance(a, b) for a, b in after}
        assert after != before
        assert calls == []
        assert grown._snapped == memo

    def test_stats_mirror_the_counters(self):
        net = square_network()
        net.node_distance(0, 2)
        net.node_distance(1, 3)
        assert net.stats() == {
            "settled_nodes": float(net.settled_nodes),
            "cache_evictions": 0.0,
        }


class TestReachUnderRoadNetwork:
    """The range check ``dist <= d_w`` reads the network distance."""

    @staticmethod
    def _pair(max_distance, worker_at=(0.0, 0.0), task_at=(1.0, 1.0)):
        w = Worker(id=0, location=worker_at, start=0.0, wait=100.0,
                   velocity=1.0, max_distance=max_distance,
                   skills=frozenset({0}))
        t = Task(id=0, location=task_at, start=0.0, wait=100.0, skill=0)
        return w, t

    def test_within_reach_is_feasible(self):
        metric = RoadNetworkDistance(square_network())
        w, t = self._pair(5.0)
        assert pair_feasible(w, t, metric)
        assert pair_rejection_reason(w, t, metric) is None

    def test_beyond_reach_is_rejected(self):
        metric = RoadNetworkDistance(square_network())
        # Straight line sqrt(2) <= 1.5, but the streets go round: 2.0.
        w, t = self._pair(1.5)
        assert euclidean(w.location, t.location) <= w.max_distance
        assert not pair_feasible(w, t, metric)
        assert pair_rejection_reason(w, t, metric) == "reach"

    def test_reach_exactly_at_distance(self):
        metric = RoadNetworkDistance(square_network())
        w, t = self._pair(metric((0.0, 0.0), (1.0, 1.0)))
        assert w.max_distance == 2.0
        assert pair_feasible(w, t, metric)

    def test_same_point_zero_reach(self):
        metric = RoadNetworkDistance(square_network())
        w, t = self._pair(0.0, worker_at=(0.3, 0.0), task_at=(0.3, 0.0))
        assert metric(w.location, t.location) == 0.0
        assert pair_feasible(w, t, metric)

    def test_decisions_match_metric_comparison(self):
        net = grid_road_network(UNIT, 6, 6, rng=random.Random(9),
                                diagonal_prob=0.2, jitter=0.1)
        metric = RoadNetworkDistance(net)
        rng = random.Random(1)
        for _ in range(40):
            a = (rng.random(), rng.random())
            b = (rng.random(), rng.random())
            w, t = self._pair(rng.random() * 2.0, worker_at=a, task_at=b)
            expected = None if metric(a, b) <= w.max_distance else "reach"
            assert pair_rejection_reason(w, t, metric) == expected


class TestGridJitter:
    def test_jitter_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            grid_road_network(UNIT, 3, 3, jitter=-0.1)

    def test_zero_jitter_preserves_legacy_stream(self):
        a = grid_road_network(UNIT, 4, 4, rng=random.Random(5), closure_prob=0.3)
        b = grid_road_network(UNIT, 4, 4, rng=random.Random(5), closure_prob=0.3,
                              jitter=0.0)
        assert a._adjacency == b._adjacency

    def test_jitter_perturbs_weights_upward(self):
        plain = grid_road_network(UNIT, 4, 4)
        jittered = grid_road_network(UNIT, 4, 4, rng=random.Random(5), jitter=0.2)
        assert jittered.num_edges == plain.num_edges
        d_plain = plain.node_distance(0, 15)
        d_jit = jittered.node_distance(0, 15)
        assert d_plain < d_jit <= d_plain * 1.2 + 1e-9


class TestFreePointDistance:
    def test_same_point_is_zero(self):
        net = square_network()
        assert net.distance((0.2, 0.1), (0.2, 0.1)) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_euclidean(self):
        net = square_network()
        rng = random.Random(5)
        for _ in range(50):
            a = (rng.random(), rng.random())
            b = (rng.random(), rng.random())
            assert net.distance(a, b) >= euclidean(a, b) - 1e-12

    def test_symmetry(self):
        net = square_network()
        a, b = (0.1, 0.0), (0.9, 1.0)
        assert net.distance(a, b) == pytest.approx(net.distance(b, a))

    def test_metric_object(self):
        metric = RoadNetworkDistance(square_network())
        assert metric.name == "roadnet"
        assert metric((0.0, 0.0), (1.0, 1.0)) == pytest.approx(2.0)


class TestGridRoadNetwork:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError, match="2x2"):
            grid_road_network(UNIT, 1, 5)
        with pytest.raises(ValueError, match="detour_factor"):
            grid_road_network(UNIT, 3, 3, detour_factor=0.5)

    def test_plain_grid_structure(self):
        net = grid_road_network(UNIT, 3, 4)
        assert net.num_nodes == 12
        # 3 rows x 3 horizontal + 2 x 4 vertical = 17
        assert net.num_edges == 17
        assert net.is_connected()

    def test_manhattan_like_distances(self):
        net = grid_road_network(UNIT, 2, 2)
        # corner to corner of the unit square along streets = 2.0
        assert net.distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(2.0)

    def test_closures_keep_connectivity(self):
        for seed in range(5):
            net = grid_road_network(
                UNIT, 5, 5, rng=random.Random(seed), closure_prob=0.6
            )
            assert net.is_connected()

    def test_diagonals_shorten_paths(self):
        plain = grid_road_network(UNIT, 4, 4)
        with_diag = grid_road_network(
            UNIT, 4, 4, rng=random.Random(1), diagonal_prob=1.0
        )
        assert with_diag.distance((0, 0), (1, 1)) < plain.distance((0, 0), (1, 1))

    def test_detour_factor_scales(self):
        slow = grid_road_network(UNIT, 2, 2, detour_factor=1.5)
        assert slow.node_distance(0, 1) == pytest.approx(1.5)


class TestAllocationUnderRoadNetwork:
    def test_greedy_valid_with_roadnet_metric(self):
        """Section II-A: the approaches work with other distance functions."""
        from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
        from repro.algorithms.greedy import DASCGreedy
        from repro.engine.context import BatchContext
        from repro.simulation.platform import run_single_batch
        from tests.reference import ExhaustiveChecker

        instance = generate_synthetic(SyntheticConfig(seed=4).scaled(0.01))
        net = grid_road_network(
            BoundingBox(0.0, 0.0, 0.5, 0.5), 6, 6, rng=random.Random(2),
            diagonal_prob=0.3,
        )
        instance.metric = RoadNetworkDistance(net)
        outcome = run_single_batch(instance, DASCGreedy())
        assert outcome.assignment.is_valid(instance, now=instance.earliest_start)
        # the engine's build and the per-pair oracle agree under the new
        # metric
        built = BatchContext.standalone(instance.workers, instance.tasks, instance)
        slow = ExhaustiveChecker(instance.workers, instance.tasks, instance.metric)
        assert sorted(built.checker.pairs()) == sorted(slow.pairs())
