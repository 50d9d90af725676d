"""Road-network substrate tests."""

import math
import random

import pytest

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


class TestSearchCache:
    """Bounded FIFO eviction instead of wholesale clears."""

    def _line(self, n=6, **kw):
        nodes = {i: (float(i), 0.0) for i in range(n)}
        edges = [(i, i + 1) for i in range(n - 1)]
        return RoadNetwork(nodes, edges, accelerate=False, **kw)

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
                                closure_prob=0.2, accelerate=False)
        full = net._dijkstra(0)
        for target in range(net.num_nodes):
            assert net.node_distance(0, target) == full.get(target, math.inf)


class TestBoundedDistance:
    def test_within_budget_is_exact(self):
        net = square_network()
        a, b = (0.0, 0.0), (1.0, 1.0)
        assert net.bounded_distance(a, b, 5.0) == net.distance(a, b)

    def test_over_budget_is_infinite(self):
        net = square_network()
        assert net.bounded_distance((0.0, 0.0), (1.0, 1.0), 1.0) == math.inf

    def test_budget_exactly_at_distance(self):
        net = square_network()
        a, b = (0.0, 0.0), (1.0, 1.0)
        assert net.bounded_distance(a, b, net.distance(a, b)) == net.distance(a, b)

    def test_same_point_zero_budget(self):
        net = square_network()
        assert net.bounded_distance((0.3, 0.0), (0.3, 0.0), 0.0) == net.distance(
            (0.3, 0.0), (0.3, 0.0)
        )

    def test_metric_bounded_matches_plain(self):
        net = grid_road_network(UNIT, 6, 6, rng=random.Random(9),
                                diagonal_prob=0.2, jitter=0.1)
        metric = RoadNetworkDistance(net)
        rng = random.Random(1)
        for _ in range(40):
            a = (rng.random(), rng.random())
            b = (rng.random(), rng.random())
            budget = rng.random() * 2.0
            plain = metric(a, b)
            bounded = metric.bounded_distance(a, b, budget)
            assert bounded == (plain if plain <= budget else math.inf)


class TestDistanceTable:
    def test_cross_product_matches_single_queries(self):
        net = grid_road_network(UNIT, 5, 5, rng=random.Random(7),
                                closure_prob=0.15, jitter=0.05)
        sources, targets = [0, 3, 12], [4, 12, 20, 24]
        table = net.distance_table(sources, targets)
        assert set(table) == {(s, t) for s in sources for t in targets}
        for (s, t), value in table.items():
            assert value == net.node_distance(s, t)

    def test_pair_list_matches_single_queries(self):
        net = grid_road_network(UNIT, 5, 5, rng=random.Random(8), jitter=0.1)
        pairs = [(0, 24), (24, 0), (7, 7), (3, 19)]
        table = net.distance_table(pairs=pairs)
        for (s, t), value in table.items():
            assert value == net.node_distance(s, t)
        assert table[(7, 7)] == 0.0

    def test_metric_table_matches_calls(self):
        net = grid_road_network(UNIT, 6, 6, rng=random.Random(2),
                                diagonal_prob=0.3, jitter=0.1)
        metric = RoadNetworkDistance(net)
        assert metric.supports_distance_table
        rng = random.Random(3)
        pts = [(rng.random(), rng.random()) for _ in range(8)]
        pairs = [(a, b) for a in pts for b in pts[:4]]
        table = metric.distance_table(pairs=pairs)
        for (a, b), value in table.items():
            assert value == metric(a, b)

    def test_counters_move(self):
        net = grid_road_network(UNIT, 4, 4, accelerate=False)
        net.distance_table([0, 1], [14, 15])
        assert net.table_queries == 4
        assert net.settled_nodes > 0


class TestAcceleration:
    """CH on/off must be invisible except through the counters."""

    def _twin_grids(self, seed, **kw):
        plain = grid_road_network(UNIT, 7, 7, rng=random.Random(seed),
                                  accelerate=False, **kw)
        accel = grid_road_network(UNIT, 7, 7, rng=random.Random(seed),
                                  accelerate=True, **kw)
        assert plain._adjacency == accel._adjacency
        return plain, accel

    def test_flag_and_default(self):
        from repro.spatial.roadnet import MIN_CH_NODES

        net = square_network()
        assert not net.accelerated  # tiny network: heuristic says no
        assert RoadNetwork({0: (0, 0)}, accelerate=True).accelerated
        big = grid_road_network(UNIT, 12, 12)
        assert big.num_nodes >= MIN_CH_NODES and big.accelerated
        assert not grid_road_network(UNIT, 12, 12, accelerate=False).accelerated

    def test_queries_bit_identical(self):
        plain, accel = self._twin_grids(11, closure_prob=0.2,
                                        diagonal_prob=0.2, jitter=0.1)
        for s in range(0, plain.num_nodes, 3):
            for t in range(0, plain.num_nodes, 5):
                assert accel.node_distance(s, t) == plain.node_distance(s, t)

    def test_table_and_bounded_bit_identical(self):
        plain, accel = self._twin_grids(13, jitter=0.2)
        sources = list(range(0, plain.num_nodes, 4))
        targets = list(range(1, plain.num_nodes, 6))
        assert accel.distance_table(sources, targets) == plain.distance_table(
            sources, targets
        )
        rng = random.Random(5)
        for _ in range(60):
            a = (rng.random(), rng.random())
            b = (rng.random(), rng.random())
            budget = rng.random() * 1.5
            assert accel.bounded_distance(a, b, budget) == plain.bounded_distance(
                a, b, budget
            )

    def test_hierarchy_built_lazily_once(self):
        _, accel = self._twin_grids(17)
        assert accel.hierarchy_builds == 0
        accel.node_distance(0, accel.num_nodes - 1)
        accel.distance_table([0, 1], [2, 3])
        assert accel.hierarchy_builds == 1
        assert accel.shortcuts == accel.hierarchy.shortcuts
        assert accel.settled_nodes > 0

    def test_add_edge_invalidates_hierarchy(self):
        _, accel = self._twin_grids(19)
        far = accel.num_nodes - 1
        before = accel.node_distance(0, far)
        accel.add_edge(0, far, weight=1e-3)
        assert accel.node_distance(0, far) == 1e-3 < before
        assert accel.hierarchy_builds == 2

    def test_stats_keys(self):
        net = square_network()
        net.distance((0.0, 0.0), (1.0, 1.0))
        stats = net.stats()
        for key in ("settled_nodes", "table_queries", "bounded_queries",
                    "cache_evictions", "hierarchy_builds", "shortcuts"):
            assert key in stats


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
        # the engine's table-backed build and per-pair checks agree under
        # the new metric
        built = BatchContext.standalone(instance.workers, instance.tasks, instance)
        slow = ExhaustiveChecker(instance.workers, instance.tasks, instance.metric)
        assert sorted(built.checker.pairs()) == sorted(slow.pairs())
