"""Shortest-path engines over adjacency lists.

All functions operate on the ``adjacency_lists`` representation produced
by :meth:`repro.network.road.RoadNetwork.adjacency_lists` (and the
transit-network equivalent): ``adj[v]`` is a list of
``(neighbor, edge_id, weight)`` triples. Keeping this flat structure lets
one adjacency build serve thousands of Dijkstra runs during demand
aggregation and candidate-edge pre-computation.
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
    """Single-source Dijkstra.

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


def reconstruct_vertex_path(pred_v: list[int], source: int, target: int) -> list[int]:
    """Vertex sequence from ``source`` to ``target`` out of a predecessor array.

    Returns ``[]`` when ``target`` is unreachable.
    """
    if target == source:
        return [source]
    if pred_v[target] == -1:
        return []
    path = [target]
    v = target
    while v != source:
        v = pred_v[v]
        if v == -1:
            return []
        path.append(v)
    path.reverse()
    return path


def reconstruct_edge_path(
    pred_v: list[int], pred_e: list[int], source: int, target: int
) -> list[int]:
    """Edge-id sequence from ``source`` to ``target``; ``[]`` if unreachable."""
    if target == source:
        return []
    if pred_v[target] == -1:
        return []
    edges = []
    v = target
    while v != source:
        edges.append(pred_e[v])
        v = pred_v[v]
        if v == -1:
            return []
    edges.reverse()
    return edges


def shortest_path(
    adj, source: int, target: int
) -> tuple[float, list[int], list[int]]:
    """Distance, vertex path, and edge path between two vertices.

    Unreachable targets yield ``(inf, [], [])``.
    """
    dist, pred_v, pred_e = dijkstra(adj, source, targets=[target])
    if math.isinf(dist[target]):
        return math.inf, [], []
    return (
        dist[target],
        reconstruct_vertex_path(pred_v, source, target),
        reconstruct_edge_path(pred_v, pred_e, source, target),
    )


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
    (:mod:`repro.trajectory.demand`) walks its own shortest-path tree.
    Kept as a public, tested utility.
    """
    dist, pred_v, pred_e = dijkstra(adj, source, targets=list(destination_counts))
    counts: dict[int, float] = {}
    for dest, mult in destination_counts.items():
        if math.isinf(dist[dest]):
            continue
        v = dest
        while v != source:
            eid = pred_e[v]
            if eid == -1:
                break
            counts[eid] = counts.get(eid, 0.0) + mult
            v = pred_v[v]
    return counts
