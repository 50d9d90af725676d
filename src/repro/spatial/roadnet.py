"""Road-network distances (Section II-A's "other distance functions").

The paper notes the DA-SC approaches work with road-network distance in
place of the Euclidean default.  This module provides that substrate:

* :class:`RoadNetwork` — an undirected weighted graph embedded in the
  plane, with nearest-node snapping and one query path: a *resumable
  per-source Dijkstra*.  :meth:`RoadNetwork.node_distance` settles only
  until the target settles, keeps the search state and resumes it for
  later targets from the same source (a truncated prefix of a full run, so
  labels never change), with FIFO state eviction.  It returns floats
  **bit-identical** to a full Dijkstra (property-pinned in
  ``tests/properties/test_prop_roadnet.py``).  :meth:`RoadNetwork.distance`
  snaps each free point once: nodes never move, so a point's nearest node
  and snap leg are memoised for the network's lifetime;
* :class:`RoadNetworkDistance` — a :class:`~repro.spatial.distance.DistanceMetric`
  over free points: snap both endpoints to the network, walk the network
  between them;
* :func:`grid_road_network` — a synthetic city grid (optional diagonals,
  random street closures, per-street length jitter) that stays connected by
  construction.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.metrics import REGISTRY
from repro.spatial.distance import DistanceMetric, Point, euclidean
from repro.spatial.index import GridIndex
from repro.spatial.region import BoundingBox

_SETTLED = REGISTRY.counter(
    "roadnet_settled_nodes", "nodes settled by road-network shortest-path searches"
)


class _SearchState:
    """A paused per-source Dijkstra: resuming settles exactly the nodes the
    full run would settle next, so labels of settled nodes are final."""

    __slots__ = ("dist", "heap", "settled")

    def __init__(self, source: int) -> None:
        self.dist: Dict[int, float] = {source: 0.0}
        self.heap: List[Tuple[float, int]] = [(0.0, source)]
        self.settled: Set[int] = set()


class RoadNetwork:
    """An undirected, positively-weighted graph embedded in the plane.

    Args:
        nodes: mapping of node id to its coordinates.
        edges: ``(u, v)`` or ``(u, v, weight)`` tuples; when the weight is
            omitted it defaults to the Euclidean length of the segment.
        cache_size: bound on retained per-source search states; a full
            cache evicts the oldest state (first in, first out).

    Raises:
        ValueError: on unknown endpoints or non-positive explicit weights.
    """

    def __init__(
        self,
        nodes: Dict[int, Point],
        edges: Iterable[Tuple] = (),
        cache_size: int = 1024,
    ) -> None:
        if not nodes:
            raise ValueError("a road network needs at least one node")
        if cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self._coords: Dict[int, Point] = {nid: (float(p[0]), float(p[1])) for nid, p in nodes.items()}
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {nid: [] for nid in self._coords}
        self._snap_index: GridIndex[int] = GridIndex(cell_size=self._pick_cell_size())
        self._snap_index.insert_many(self._coords.items())
        self._cache_size = cache_size
        self._states: Dict[int, _SearchState] = {}
        # Free point -> (nearest node, snap leg); nodes never move, so
        # entries outlive add_edge.
        self._snapped: Dict[Point, Tuple[int, float]] = {}
        self.settled_nodes = 0
        self.cache_evictions = 0
        for edge in edges:
            self._insert_edge(*edge)

    def _pick_cell_size(self) -> float:
        xs = [p[0] for p in self._coords.values()]
        ys = [p[1] for p in self._coords.values()]
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        return max(span / max(1.0, math.sqrt(len(self._coords))), 1e-9)

    # -- construction ---------------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: Optional[float] = None) -> None:
        """Add an undirected edge; weight defaults to segment length."""
        self._insert_edge(u, v, weight)
        self._states.clear()  # labels may shrink; counters are kept

    def _insert_edge(self, u: int, v: int, weight: Optional[float] = None) -> None:
        if u not in self._coords or v not in self._coords:
            raise ValueError(f"edge ({u}, {v}) references unknown node(s)")
        if weight is None:
            weight = euclidean(self._coords[u], self._coords[v])
        if weight <= 0.0:
            raise ValueError(f"non-positive edge weight {weight} on ({u}, {v})")
        self._adjacency[u].append((v, weight))
        self._adjacency[v].append((u, weight))

    # -- queries -----------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._coords)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def coordinates(self, node: int) -> Point:
        return self._coords[node]

    def nearest_node(self, point: Point) -> int:
        """The network node closest to a free point."""
        node = self._snap_index.nearest(point)
        assert node is not None  # the constructor guarantees >= 1 node
        return node

    def node_distance(self, source: int, target: int) -> float:
        """Shortest-path length between two nodes (inf when disconnected)."""
        if source == target:
            return 0.0
        state = self._state_for(source)
        if target not in state.settled:
            self._resume(state, target)
        return state.dist.get(target, math.inf)

    def distance(self, a: Point, b: Point) -> float:
        """Network distance between free points: snap, walk, unsnap."""
        na, snap_a = self._snap(a)
        nb, snap_b = self._snap(b)
        if na == nb:
            # both endpoints reach the same junction; walking via it is an
            # upper bound, the straight line a lower bound — use the line
            # when it is shorter (local streets not modelled by the graph).
            return max(euclidean(a, b), abs(snap_a - snap_b))
        return snap_a + self.node_distance(na, nb) + snap_b

    def is_connected(self) -> bool:
        """Whether every node is reachable from every other."""
        start = next(iter(self._coords))
        return len(self._dijkstra(start)) == self.num_nodes

    def stats(self) -> Dict[str, float]:
        """Per-network query counters (mirrored into the global registry)."""
        return {
            "settled_nodes": float(self.settled_nodes),
            "cache_evictions": float(self.cache_evictions),
        }

    # -- internals ------------------------------------------------------------------------

    def _snap(self, point: Point) -> Tuple[int, float]:
        """``point``'s nearest node and its distance to it, memoised."""
        entry = self._snapped.get(point)
        if entry is None:
            node = self.nearest_node(point)
            entry = self._snapped[point] = (node, euclidean(point, self._coords[node]))
        return entry

    def _state_for(self, source: int) -> _SearchState:
        state = self._states.get(source)
        if state is not None:
            return state
        state = _SearchState(source)
        if len(self._states) >= self._cache_size:
            del self._states[next(iter(self._states))]
            self.cache_evictions += 1
        self._states[source] = state
        return state

    def _resume(self, state: _SearchState, target: int) -> None:
        """Settle until ``target`` is settled or the frontier empties.  The
        loop is a verbatim continuation of :meth:`_dijkstra`, so settled
        labels are identical to a full run's."""
        dist, heap, settled = state.dist, state.heap, state.settled
        adjacency = self._adjacency
        before = len(settled)
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for neighbour, weight in adjacency[node]:
                nd = d + weight
                if nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    heapq.heappush(heap, (nd, neighbour))
            if node == target:
                break
        gained = len(settled) - before
        self.settled_nodes += gained
        _SETTLED.inc(gained)

    def _dijkstra(self, source: int) -> Dict[int, float]:
        """Reference full-graph Dijkstra; every kernel is pinned against it."""
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        settled: Set[int] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for neighbour, weight in self._adjacency[node]:
                nd = d + weight
                if nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    heapq.heappush(heap, (nd, neighbour))
        return dist


class RoadNetworkDistance(DistanceMetric):
    """Distance metric walking a :class:`RoadNetwork` between free points."""

    name = "roadnet"

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network

    def __call__(self, a: Point, b: Point) -> float:
        return self.network.distance(a, b)


def grid_road_network(
    box: BoundingBox,
    rows: int,
    cols: int,
    rng: Optional[random.Random] = None,
    diagonal_prob: float = 0.0,
    closure_prob: float = 0.0,
    detour_factor: float = 1.0,
    jitter: float = 0.0,
) -> RoadNetwork:
    """A synthetic city: a rows x cols street grid inside ``box``.

    Args:
        rng: randomness source for diagonals/closures/jitter (None =
            deterministic plain grid).
        diagonal_prob: chance of adding a diagonal shortcut per cell.
        closure_prob: chance of *trying* to remove a street segment; a
            spanning set of streets is always kept, so the network stays
            connected.
        detour_factor: multiplies every street length (>= 1 models streets
            being slower than the crow flies).
        jitter: per-street relative length noise: each street is stretched
            by a factor in ``[1, 1 + jitter]``, since real street lengths
            vary.  Weights stay >= segment length.

    Raises:
        ValueError: for degenerate dimensions, ``detour_factor < 1`` or
            negative ``jitter``.
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"need at least a 2x2 grid, got {rows}x{cols}")
    if detour_factor < 1.0:
        raise ValueError(f"detour_factor must be >= 1, got {detour_factor}")
    if jitter < 0.0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    rng = rng or random.Random(0)

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    nodes = {
        node_id(r, c): (
            box.min_x + box.width * (c / (cols - 1)),
            box.min_y + box.height * (r / (rows - 1)),
        )
        for r in range(rows)
        for c in range(cols)
    }

    # A spanning "snake" keeps connectivity whatever gets closed below.
    spanning: set[Tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols - 1):
            spanning.add((node_id(r, c), node_id(r, c + 1)))
    for r in range(rows - 1):
        spanning.add((node_id(r, 0), node_id(r + 1, 0)))

    def weight(u: int, v: int) -> float:
        length = euclidean(nodes[u], nodes[v]) * detour_factor
        if jitter > 0.0:
            length *= 1.0 + rng.random() * jitter
        return length

    edges: List[Tuple[int, int, float]] = []
    for r in range(rows):
        for c in range(cols):
            u = node_id(r, c)
            if c + 1 < cols:
                v = node_id(r, c + 1)
                if (u, v) in spanning or rng.random() >= closure_prob:
                    edges.append((u, v, weight(u, v)))
            if r + 1 < rows:
                v = node_id(r + 1, c)
                if (u, v) in spanning or rng.random() >= closure_prob:
                    edges.append((u, v, weight(u, v)))
            if c + 1 < cols and r + 1 < rows and rng.random() < diagonal_prob:
                v = node_id(r + 1, c + 1)
                edges.append((u, v, weight(u, v)))
    return RoadNetwork(nodes, edges)
