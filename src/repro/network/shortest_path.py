"""Shortest paths over adjacency lists.

Everything operates on the ``adjacency_lists`` representation produced
by :meth:`repro.network.road.RoadNetwork.adjacency_lists` (and the
transit-network equivalent): ``adj[v]`` is a list of
``(neighbor, edge_id, weight)`` triples. Keeping this flat structure lets
one adjacency build serve thousands of Dijkstra runs during demand
aggregation and candidate-edge pre-computation.

Callers outside :mod:`repro.network` read distances and paths through
:class:`ShortestPathTree` (or :func:`shortest_path` for one pair); the
engine, :func:`dijkstra`, and its predecessor arrays stay behind it, so
swapping the engine edits this module alone.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from repro.utils.errors import GraphError

Adjacency = "list[list[tuple[int, int, float]]]"


def dijkstra(
    adj,
    source: int,
    targets: "Iterable[int] | None" = None,
    cutoff: float = math.inf,
) -> tuple[list[float], list[int], list[int]]:
    """Single-source Dijkstra: the engine behind :class:`ShortestPathTree`.

    Returns ``(dist, pred_vertex, pred_edge)`` arrays where unreachable
    vertices have ``dist = inf`` and predecessors ``-1``. If ``targets``
    is given, the search stops once every target is settled; ``cutoff``
    prunes anything farther than the given distance.
    """
    n = len(adj)
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range for {n} vertices")
    dist = [math.inf] * n
    pred_v = [-1] * n
    pred_e = [-1] * n
    dist[source] = 0.0
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for nbr, eid, w in adj[v]:
            nd = d + w
            if nd < dist[nbr] and nd <= cutoff:
                dist[nbr] = nd
                pred_v[nbr] = v
                pred_e[nbr] = eid
                heapq.heappush(heap, (nd, nbr))
    return dist, pred_v, pred_e


class ShortestPathTree:
    """One :func:`dijkstra` search from ``source``, read as distances and paths.

    This is the package's interface to shortest paths: callers ask for
    ``dist(t)``, ``edges(t)`` and ``vertices(t)`` and never see the
    engine's predecessor arrays. With ``targets`` the search stops once
    every target is settled, so only targets (or every vertex when
    ``targets`` is ``None``) are guaranteed final. ``cutoff`` leaves
    vertices farther than it unreachable.
    """

    __slots__ = ("source", "_dist", "_pred_v", "_pred_e")

    def __init__(
        self,
        adj,
        source: int,
        targets: "Iterable[int] | None" = None,
        cutoff: float = math.inf,
    ) -> None:
        self.source = source
        self._dist, self._pred_v, self._pred_e = dijkstra(adj, source, targets, cutoff)

    def dist(self, target: int) -> float:
        """Path length to ``target``; ``inf`` when unreachable."""
        return self._dist[target]

    def edges(self, target: int) -> "list[int] | None":
        """Edge ids from the source to ``target``, in travel order.

        ``[]`` for the source itself, ``None`` when ``target`` is unreachable.
        """
        if math.isinf(self._dist[target]):
            return None
        out = []
        v = target
        while v != self.source:
            out.append(self._pred_e[v])
            v = self._pred_v[v]
        out.reverse()
        return out

    def vertices(self, target: int) -> "list[int] | None":
        """Vertices from the source to ``target`` inclusive; ``None`` if unreachable."""
        if math.isinf(self._dist[target]):
            return None
        out = [target]
        v = target
        while v != self.source:
            v = self._pred_v[v]
            out.append(v)
        out.reverse()
        return out


def shortest_path(
    adj, source: int, target: int
) -> tuple[float, list[int], list[int]]:
    """Distance, vertex path, and edge path between two vertices.

    Unreachable targets yield ``(inf, [], [])``.
    """
    tree = ShortestPathTree(adj, source, targets=[target])
    vertices = tree.vertices(target)
    if vertices is None:
        return math.inf, [], []
    return tree.dist(target), vertices, tree.edges(target)


def bidirectional_dijkstra(adj, source: int, target: int) -> tuple[float, list[int]]:
    """Point-to-point distance + vertex path via bidirectional search.

    Roughly halves the searched ball compared with :func:`dijkstra` for
    far-apart endpoints. Nothing in the package calls it: the
    transfer-convenience evaluation (:mod:`repro.eval.metrics`) runs
    one-to-many :func:`dijkstra` searches instead. Kept as a public,
    tested utility.
    """
    n = len(adj)
    if not (0 <= source < n and 0 <= target < n):
        raise GraphError(f"endpoints ({source}, {target}) out of range for {n} vertices")
    if source == target:
        return 0.0, [source]
    dist_f = {source: 0.0}
    dist_b = {target: 0.0}
    pred_f: dict[int, int] = {source: -1}
    pred_b: dict[int, int] = {target: -1}
    heap_f = [(0.0, source)]
    heap_b = [(0.0, target)]
    best = math.inf
    meet = -1

    def expand(heap, dist_mine, dist_other, pred):
        nonlocal best, meet
        d, v = heapq.heappop(heap)
        if d > dist_mine.get(v, math.inf):
            return
        for nbr, _eid, w in adj[v]:
            nd = d + w
            if nd < dist_mine.get(nbr, math.inf):
                dist_mine[nbr] = nd
                pred[nbr] = v
                heapq.heappush(heap, (nd, nbr))
                if nbr in dist_other and nd + dist_other[nbr] < best:
                    best = nd + dist_other[nbr]
                    meet = nbr

    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            expand(heap_f, dist_f, dist_b, pred_f)
        else:
            expand(heap_b, dist_b, dist_f, pred_b)

    if math.isinf(best):
        return math.inf, []
    forward = []
    v = meet
    while v != -1:
        forward.append(v)
        v = pred_f[v]
    forward.reverse()
    v = pred_b[meet]
    while v != -1:
        forward.append(v)
        v = pred_b[v]
    return best, forward


def shortest_path_tree_demand(
    adj, source: int, destination_counts: dict[int, float]
) -> dict[int, float]:
    """Accumulate per-edge trip counts along one shortest-path tree.

    ``destination_counts`` maps destination vertices to trip multiplicity.
    Returns ``{edge_id: count}`` for every edge on a used tree path, so
    trips grouped by origin cost one Dijkstra per unique origin. Nothing
    in the package calls it: trajectory demand aggregation
    (:mod:`repro.trajectory.demand`) reads :class:`ShortestPathTree`
    paths of tolerance-accepted trips instead. Kept as a public, tested
    utility.
    """
    tree = ShortestPathTree(adj, source, targets=list(destination_counts))
    counts: dict[int, float] = {}
    for dest, mult in destination_counts.items():
        for eid in tree.edges(dest) or ():
            counts[eid] = counts.get(eid, 0.0) + mult
    return counts
