"""Road-network distances (Section II-A's "other distance functions").

The paper notes the DA-SC approaches work with road-network distance in
place of the Euclidean default.  This module provides that substrate:

* :class:`RoadNetwork` — an undirected weighted graph embedded in the
  plane, with nearest-node snapping and three query kernels that all return
  **bit-identical** floats (property-pinned in
  ``tests/properties/test_prop_roadnet.py``):

  - *resumable per-source Dijkstra* — :meth:`RoadNetwork.node_distance`
    settles only until the target settles, keeps the search state and
    resumes it for later targets from the same source (a truncated prefix
    of a full run, so labels never change), with FIFO/LRU state eviction;
  - *goal-bounded queries* — :meth:`RoadNetwork.bounded_distance` stops the
    moment the target is reached or the distance budget (a worker's
    ``d_w``) is provably exceeded, returning ``inf`` past the budget;
  - *many-to-many tables* — :meth:`RoadNetwork.distance_table` answers a
    whole batch of pairs at once, via the contraction hierarchy of
    :mod:`repro.spatial.ch` when acceleration is on (one small cone search
    per distinct endpoint instead of one full Dijkstra per pair) or a
    multi-source early-exit fallback otherwise;

* :class:`RoadNetworkDistance` — a :class:`~repro.spatial.distance.DistanceMetric`
  over free points: snap both endpoints to the network, walk the network
  between them.  Declares ``supports_distance_table`` so the allocation
  engine routes a full build's distances through one table call;
* :func:`grid_road_network` — a synthetic city grid (optional diagonals,
  random street closures, per-street length jitter) that stays connected by
  construction.

Acceleration is on for networks of at least :data:`MIN_CH_NODES` nodes and
can be forced either way per network (``accelerate=``).  Because
accelerated answers are bit-equal to plain Dijkstra, forcing acceleration
can never change a simulation report — only the ``roadnet_*``
observability counters.

Network distance lower-bounds to the straight line (`snap + path + snap >=
euclidean` by the triangle inequality), so shard routing's Euclidean
reach discs remain sound under this metric.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.metrics import REGISTRY
from repro.spatial.ch import ContractionHierarchy
from repro.spatial.distance import DistanceMetric, Point, euclidean
from repro.spatial.index import GridIndex
from repro.spatial.region import BoundingBox

#: Networks below this size answer a full Dijkstra in microseconds; the CH
#: build would cost more than it saves, so default acceleration only kicks
#: in above it.  ``accelerate=True`` overrides the floor (tests do).
MIN_CH_NODES = 128

_SETTLED = REGISTRY.counter(
    "roadnet_settled_nodes", "nodes settled by road-network shortest-path searches"
)
_SHORTCUTS = REGISTRY.counter(
    "roadnet_shortcuts", "shortcut edges inserted by contraction-hierarchy builds"
)
_TABLE_QUERIES = REGISTRY.counter(
    "roadnet_table_queries", "pairs answered by the many-to-many table kernel"
)
_BOUNDED_QUERIES = REGISTRY.counter(
    "roadnet_bounded_queries", "goal-bounded road-network point queries"
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
        cache_size: bound on retained per-source search states.
        cache_policy: eviction order for the search-state cache —
            ``"fifo"`` (default) evicts the oldest state, ``"lru"`` the
            least recently queried one.
        accelerate: build a contraction hierarchy for queries.  ``None``
            (default) accelerates networks of at least
            :data:`MIN_CH_NODES` nodes; ``True``/``False`` force it.
            Either way every query returns the same floats.

    Raises:
        ValueError: on unknown endpoints or non-positive explicit weights.
    """

    def __init__(
        self,
        nodes: Dict[int, Point],
        edges: Iterable[Tuple] = (),
        cache_size: int = 1024,
        cache_policy: str = "fifo",
        accelerate: Optional[bool] = None,
    ) -> None:
        if not nodes:
            raise ValueError("a road network needs at least one node")
        if cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        if cache_policy not in ("fifo", "lru"):
            raise ValueError(f"cache_policy must be 'fifo' or 'lru', got {cache_policy!r}")
        self._coords: Dict[int, Point] = {nid: (float(p[0]), float(p[1])) for nid, p in nodes.items()}
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {nid: [] for nid in self._coords}
        self._snap_index: GridIndex[int] = GridIndex(cell_size=self._pick_cell_size())
        self._snap_index.insert_many(self._coords.items())
        self._cache_size = cache_size
        self._lru = cache_policy == "lru"
        self._accelerate = accelerate
        self._states: Dict[int, _SearchState] = {}
        self._hierarchy: Optional[ContractionHierarchy] = None
        self._ch_settled_seen = 0
        self.settled_nodes = 0
        self.table_queries = 0
        self.bounded_queries = 0
        self.cache_evictions = 0
        self.hierarchy_builds = 0
        self.shortcuts = 0
        for edge in edges:
            self._insert_edge(*edge)
        # One invalidation after the whole constructor edge loop — bulk
        # construction must not pay a cache reset per edge.
        self._invalidate()

    def _pick_cell_size(self) -> float:
        xs = [p[0] for p in self._coords.values()]
        ys = [p[1] for p in self._coords.values()]
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        return max(span / max(1.0, math.sqrt(len(self._coords))), 1e-9)

    # -- construction ---------------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: Optional[float] = None) -> None:
        """Add an undirected edge; weight defaults to segment length."""
        self._insert_edge(u, v, weight)
        self._invalidate()

    def _insert_edge(self, u: int, v: int, weight: Optional[float] = None) -> None:
        if u not in self._coords or v not in self._coords:
            raise ValueError(f"edge ({u}, {v}) references unknown node(s)")
        if weight is None:
            weight = euclidean(self._coords[u], self._coords[v])
        if weight <= 0.0:
            raise ValueError(f"non-positive edge weight {weight} on ({u}, {v})")
        self._adjacency[u].append((v, weight))
        self._adjacency[v].append((u, weight))

    def _invalidate(self) -> None:
        """Drop query state derived from the edge set (counters are kept)."""
        self._states.clear()
        self._hierarchy = None
        self._ch_settled_seen = 0

    # -- acceleration ---------------------------------------------------------------

    @property
    def accelerated(self) -> bool:
        """Whether queries route through the contraction hierarchy."""
        if self._accelerate is not None:
            return self._accelerate
        return len(self._coords) >= MIN_CH_NODES

    @property
    def hierarchy(self) -> ContractionHierarchy:
        """The (lazily built) contraction hierarchy over the current edges."""
        if self._hierarchy is None:
            self._hierarchy = ContractionHierarchy(self._adjacency)
            self._ch_settled_seen = 0
            self.hierarchy_builds += 1
            self.shortcuts += self._hierarchy.shortcuts
            _SHORTCUTS.inc(self._hierarchy.shortcuts)
        return self._hierarchy

    def _sync_hierarchy_counters(self) -> None:
        if self._hierarchy is None:
            return
        delta = self._hierarchy.settled_nodes - self._ch_settled_seen
        if delta:
            self._ch_settled_seen = self._hierarchy.settled_nodes
            self.settled_nodes += delta
            _SETTLED.inc(delta)

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
        if self.accelerated:
            value = self.hierarchy.query(source, target)
            self._sync_hierarchy_counters()
            return value
        state = self._state_for(source)
        if target not in state.settled:
            self._resume(state, {target})
        return state.dist.get(target, math.inf)

    def bounded_node_distance(self, source: int, target: int, budget: float) -> float:
        """``node_distance(source, target)`` if it is ``<= budget``, else inf.

        The plain kernel prunes every frontier label above the budget and
        exits the moment the target settles.  Pruning cannot perturb the
        answer: Dijkstra's labels along a shortest path only grow, so if the
        true distance fits the budget no label on its path is ever pruned,
        and if it does not, ``inf`` is the contract.
        """
        if source == target:
            return 0.0 if 0.0 <= budget else math.inf
        if self.accelerated:
            value = self.hierarchy.query(source, target)
            self._sync_hierarchy_counters()
            return value if value <= budget else math.inf
        state = self._states.get(source)
        if state is not None and (target in state.settled or not state.heap):
            # A finished (for this target) resumable search already carries
            # the exact label; no new search needed.
            value = state.dist.get(target, math.inf)
            return value if value <= budget else math.inf
        adjacency = self._adjacency
        dist = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        settled: Set[int] = set()
        result = math.inf
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if node == target:
                result = d if d <= budget else math.inf
                break
            for neighbour, weight in adjacency[node]:
                nd = d + weight
                if nd <= budget and nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    heapq.heappush(heap, (nd, neighbour))
        self.settled_nodes += len(settled)
        _SETTLED.inc(len(settled))
        return result

    def distance_table(
        self,
        sources: Iterable[int] = (),
        targets: Iterable[int] = (),
        pairs: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> Dict[Tuple[int, int], float]:
        """Many-to-many node distances for one batch of queries.

        Args:
            sources / targets: the table axes; every ``(source, target)``
                combination is answered.
            pairs: explicit ``(source, target)`` pairs to answer instead of
                the full cross product (the engine's per-batch pair list).

        Accelerated path (bucket-style CH many-to-many): one forward cone
        per distinct source, one backward cone per distinct target, one
        cheap DAG fold per pair — ``O((|S|+|T|) * cone)`` settled nodes
        instead of ``O(|pairs| * n)``.  Plain fallback: one resumable
        multi-target Dijkstra per distinct source, stopped as soon as that
        source's targets are all settled.  Both return the same floats as
        :meth:`node_distance` pair by pair.
        """
        if pairs is None:
            pair_list = [(s, t) for s in dict.fromkeys(sources) for t in dict.fromkeys(targets)]
        else:
            pair_list = list(pairs)
        self.table_queries += len(pair_list)
        _TABLE_QUERIES.inc(len(pair_list))
        out: Dict[Tuple[int, int], float] = {}
        if self.accelerated:
            ch = self.hierarchy
            forward = {
                s: ch.forward_labels(s)
                for s in dict.fromkeys(s for s, t in pair_list if s != t)
            }
            cones = {
                t: ch.backward_cone(t)
                for t in dict.fromkeys(t for s, t in pair_list if s != t)
            }
            for s, t in pair_list:
                out[(s, t)] = 0.0 if s == t else ch.combine(forward[s], cones[t])
            self._sync_hierarchy_counters()
            return out
        wanted: Dict[int, Set[int]] = {}
        for s, t in pair_list:
            wanted.setdefault(s, set()).add(t)
        for s, want in wanted.items():
            state = self._state_for(s)
            missing = {t for t in want if t != s and t not in state.settled}
            if missing:
                self._resume(state, missing)
            dist = state.dist
            for t in want:
                out[(s, t)] = 0.0 if s == t else dist.get(t, math.inf)
        return out

    def distance(self, a: Point, b: Point) -> float:
        """Network distance between free points: snap, walk, unsnap."""
        na, nb = self.nearest_node(a), self.nearest_node(b)
        snap_a = euclidean(a, self._coords[na])
        snap_b = euclidean(b, self._coords[nb])
        if na == nb:
            # both endpoints reach the same junction; walking via it is an
            # upper bound, the straight line a lower bound — use the line
            # when it is shorter (local streets not modelled by the graph).
            return max(euclidean(a, b), abs(snap_a - snap_b))
        return snap_a + self.node_distance(na, nb) + snap_b

    def bounded_distance(self, a: Point, b: Point, budget: float) -> float:
        """``distance(a, b)`` when it is ``<= budget``, else ``inf``.

        Exactly the feasibility question ``dist <= d_w`` needs: the search
        stops settling nodes once the budget is provably exceeded.  Sound
        because each snap leg is non-negative, so the node-level distance
        never exceeds the point-level total — a node-level budget overrun
        implies a point-level one.
        """
        self.bounded_queries += 1
        _BOUNDED_QUERIES.inc()
        na, nb = self.nearest_node(a), self.nearest_node(b)
        snap_a = euclidean(a, self._coords[na])
        snap_b = euclidean(b, self._coords[nb])
        if na == nb:
            value = max(euclidean(a, b), abs(snap_a - snap_b))
            return value if value <= budget else math.inf
        node_part = self.bounded_node_distance(na, nb, budget)
        if node_part == math.inf:
            return math.inf
        value = snap_a + node_part + snap_b
        return value if value <= budget else math.inf

    def is_connected(self) -> bool:
        """Whether every node is reachable from every other."""
        start = next(iter(self._coords))
        return len(self._dijkstra(start)) == self.num_nodes

    def stats(self) -> Dict[str, float]:
        """Per-network query counters (mirrored into the global registry)."""
        return {
            "settled_nodes": float(self.settled_nodes),
            "table_queries": float(self.table_queries),
            "bounded_queries": float(self.bounded_queries),
            "cache_evictions": float(self.cache_evictions),
            "hierarchy_builds": float(self.hierarchy_builds),
            "shortcuts": float(self.shortcuts),
        }

    # -- internals ------------------------------------------------------------------------

    def _state_for(self, source: int) -> _SearchState:
        state = self._states.get(source)
        if state is not None:
            if self._lru:
                # Move-to-end: a plain dict keeps insertion order, so
                # delete + reinsert makes this state the newest.
                del self._states[source]
                self._states[source] = state
            return state
        state = _SearchState(source)
        if len(self._states) >= self._cache_size:
            del self._states[next(iter(self._states))]
            self.cache_evictions += 1
        self._states[source] = state
        return state

    def _resume(self, state: _SearchState, want: Set[int]) -> None:
        """Settle until every node in ``want`` is settled or the frontier
        empties.  The loop is a verbatim continuation of :meth:`_dijkstra`,
        so settled labels are identical to a full run's."""
        dist, heap, settled = state.dist, state.heap, state.settled
        adjacency = self._adjacency
        missing = want - settled
        before = len(settled)
        while heap and missing:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            missing.discard(node)
            for neighbour, weight in adjacency[node]:
                nd = d + weight
                if nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    heapq.heappush(heap, (nd, neighbour))
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
    """Distance metric walking a :class:`RoadNetwork` between free points.

    Network distance dominates the straight line, so shard routing's
    Euclidean reach discs stay sound (never cut off a feasible pair).
    Declares ``supports_distance_table`` so the allocation engine's
    full build hands a whole pair list to :meth:`distance_table` in one
    call.
    """

    name = "roadnet"
    # sound as long as edge weights are >= segment lengths (the default and
    # everything grid_road_network produces)
    euclidean_lower_bound = True
    supports_distance_table = True

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network

    def __call__(self, a: Point, b: Point) -> float:
        return self.network.distance(a, b)

    def bounded_distance(self, a: Point, b: Point, budget: float) -> float:
        """Goal-bounded variant; see :meth:`RoadNetwork.bounded_distance`."""
        return self.network.bounded_distance(a, b, budget)

    def distance_table(
        self,
        sources: Iterable[Point] = (),
        targets: Iterable[Point] = (),
        pairs: Optional[Iterable[Tuple[Point, Point]]] = None,
    ) -> Dict[Tuple[Point, Point], float]:
        """Batch evaluation, value-identical to calling the metric per pair.

        Snaps every distinct point once, answers the distinct snapped node
        pairs through :meth:`RoadNetwork.distance_table`, then reassembles
        each point pair with the exact expression ``__call__`` uses — same
        floats, one table walk instead of ``len(pairs)`` searches.
        """
        network = self.network
        coords = network._coords
        if pairs is None:
            pair_list = [
                (a, b) for a in dict.fromkeys(sources) for b in dict.fromkeys(targets)
            ]
        else:
            pair_list = list(pairs)
        snapped: Dict[Point, Tuple[int, float]] = {}

        def snap(point: Point) -> Tuple[int, float]:
            entry = snapped.get(point)
            if entry is None:
                node = network.nearest_node(point)
                entry = (node, euclidean(point, coords[node]))
                snapped[point] = entry
            return entry

        resolved = []
        node_pairs: Dict[Tuple[int, int], None] = {}
        for a, b in pair_list:
            na, snap_a = snap(a)
            nb, snap_b = snap(b)
            resolved.append((a, b, na, snap_a, nb, snap_b))
            if na != nb:
                node_pairs[(na, nb)] = None
        table = (
            network.distance_table(pairs=node_pairs) if node_pairs else {}
        )
        out: Dict[Tuple[Point, Point], float] = {}
        for a, b, na, snap_a, nb, snap_b in resolved:
            if na == nb:
                out[(a, b)] = max(euclidean(a, b), abs(snap_a - snap_b))
            else:
                out[(a, b)] = snap_a + table[(na, nb)] + snap_b
        return out


def grid_road_network(
    box: BoundingBox,
    rows: int,
    cols: int,
    rng: Optional[random.Random] = None,
    diagonal_prob: float = 0.0,
    closure_prob: float = 0.0,
    detour_factor: float = 1.0,
    jitter: float = 0.0,
    accelerate: Optional[bool] = None,
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
            by a factor in ``[1, 1 + jitter]``.  Real street lengths vary;
            perfectly uniform grids also carry massive exact-length ties
            that bloat contraction-hierarchy preprocessing, so benchmarks
            use a small jitter.  Weights stay >= segment length, keeping
            ``euclidean_lower_bound`` sound.
        accelerate: forwarded to :class:`RoadNetwork`.

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
    return RoadNetwork(nodes, edges, accelerate=accelerate)
