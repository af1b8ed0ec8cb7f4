"""Unit tests for the Dijkstra engine and ShortestPathTree, cross-checked against networkx."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.data.synth import SynthConfig, generate_road_network
from repro.network.shortest_path import (
    ShortestPathTree,
    bidirectional_dijkstra,
    dijkstra,
    shortest_path,
    shortest_path_tree_demand,
)
from repro.utils.errors import GraphError


@pytest.fixture(scope="module")
def road():
    return generate_road_network(SynthConfig(grid_width=8, grid_height=6, seed=3))


@pytest.fixture(scope="module")
def adj(road):
    return road.adjacency_lists("length")


@pytest.fixture(scope="module")
def nx_graph(road):
    return road.to_networkx()


class TestDijkstra:
    def test_matches_networkx_all_targets(self, road, adj, nx_graph):
        dist, _, _ = dijkstra(adj, 0)
        want = nx.single_source_dijkstra_path_length(nx_graph, 0, weight="length")
        for v in range(road.n_vertices):
            if v in want:
                assert dist[v] == pytest.approx(want[v])
            else:
                assert math.isinf(dist[v])

    def test_source_distance_zero(self, adj):
        dist, pred_v, pred_e = dijkstra(adj, 5)
        assert dist[5] == 0.0
        assert pred_v[5] == -1 and pred_e[5] == -1

    def test_early_termination_with_targets(self, adj):
        dist, _, _ = dijkstra(adj, 0, targets=[1])
        assert not math.isinf(dist[1])

    def test_cutoff_prunes(self, adj):
        dist, _, _ = dijkstra(adj, 0, cutoff=0.3)
        finite = [d for d in dist if not math.isinf(d)]
        assert all(d <= 0.3 for d in finite)

    def test_bad_source_rejected(self, adj):
        with pytest.raises(GraphError):
            dijkstra(adj, len(adj) + 10)


class TestReconstruction:
    """Paths read off a :class:`ShortestPathTree`, networkx as the oracle."""

    def test_vertex_path_endpoints(self, road, adj, nx_graph):
        target = road.n_vertices - 1
        tree = ShortestPathTree(adj, 0)
        path = tree.vertices(target)
        assert path[0] == 0 and path[-1] == target
        edges = tree.edges(target)
        assert len(edges) == len(path) - 1
        # Edge path length equals the reported distance.
        total = sum(road.edge_length(e) for e in edges)
        assert total == pytest.approx(tree.dist(target))
        want = nx.dijkstra_path_length(nx_graph, 0, target, weight="length")
        assert tree.dist(target) == pytest.approx(want)

    def test_edges_run_origin_to_destination(self, road, adj):
        tree = ShortestPathTree(adj, 0)
        for target in range(1, road.n_vertices):
            vertices, edges = tree.vertices(target), tree.edges(target)
            for i, eid in enumerate(edges):
                assert set(road.edge_endpoints(eid)) == {vertices[i], vertices[i + 1]}

    def test_every_distance_matches_networkx(self, road, adj, nx_graph):
        tree = ShortestPathTree(adj, 4)
        want = nx.single_source_dijkstra_path_length(nx_graph, 4, weight="length")
        for v in range(road.n_vertices):
            assert tree.dist(v) == pytest.approx(want[v])
            assert len(tree.vertices(v)) == len(tree.edges(v)) + 1

    def test_targets_are_final(self, road, adj):
        full = ShortestPathTree(adj, 0)
        targets = [7, road.n_vertices - 1]
        early = ShortestPathTree(adj, 0, targets=targets)
        for t in targets:
            assert early.dist(t) == full.dist(t)
            assert early.edges(t) == full.edges(t)
            assert early.vertices(t) == full.vertices(t)

    def test_path_to_self(self, adj):
        tree = ShortestPathTree(adj, 2)
        assert tree.dist(2) == 0.0
        assert tree.vertices(2) == [2]
        assert tree.edges(2) == []

    def test_unreachable_gives_none(self):
        # Two isolated vertices.
        tree = ShortestPathTree([[], []], 0)
        assert math.isinf(tree.dist(1))
        assert tree.vertices(1) is None
        assert tree.edges(1) is None

    def test_unreachable_gives_empty(self):
        # shortest_path keeps its (inf, [], []) contract for one pair.
        assert shortest_path([[], []], 0, 1) == (math.inf, [], [])

    def test_cutoff_leaves_far_vertices_unreachable(self, road, adj, nx_graph):
        want = nx.single_source_dijkstra_path_length(nx_graph, 0, weight="length")
        tree = ShortestPathTree(adj, 0, cutoff=0.3)
        near = [v for v in range(road.n_vertices) if want[v] <= 0.3]
        far = [v for v in range(road.n_vertices) if want[v] > 0.3]
        assert near and far
        for v in near:
            assert tree.dist(v) == pytest.approx(want[v])
            assert tree.vertices(v)[-1] == v
        for v in far:
            assert math.isinf(tree.dist(v))
            assert tree.vertices(v) is None and tree.edges(v) is None

    def test_bad_source_rejected(self, adj):
        with pytest.raises(GraphError):
            ShortestPathTree(adj, len(adj))


class TestPointToPoint:
    def test_shortest_path_wrapper(self, road, adj, nx_graph):
        d, vpath, epath = shortest_path(adj, 0, road.n_vertices - 1)
        want = nx.dijkstra_path_length(nx_graph, 0, road.n_vertices - 1, weight="length")
        assert d == pytest.approx(want)
        assert vpath[0] == 0 and vpath[-1] == road.n_vertices - 1

    def test_bidirectional_matches_unidirectional(self, road, adj):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s, t = rng.integers(0, road.n_vertices, 2)
            d_uni, _, _ = shortest_path(adj, int(s), int(t))
            d_bi, path = bidirectional_dijkstra(adj, int(s), int(t))
            assert d_bi == pytest.approx(d_uni)
            if path:
                assert path[0] == s and path[-1] == t

    def test_bidirectional_same_vertex(self, adj):
        d, path = bidirectional_dijkstra(adj, 3, 3)
        assert d == 0.0 and path == [3]


class TestTreeDemand:
    def test_counts_sum_to_path_lengths(self, road, adj):
        dests = {5: 2.0, 11: 1.0}
        counts = shortest_path_tree_demand(adj, 0, dests)
        # Total accumulated count equals sum over trips of path edge count.
        total = sum(counts.values())
        expected = 0.0
        for dest, mult in dests.items():
            _, vpath, epath = shortest_path(adj, 0, dest)
            expected += mult * len(epath)
        assert total == pytest.approx(expected)

    def test_unreachable_destination_skipped(self):
        adj2 = [[(1, 0, 1.0)], [(0, 0, 1.0)], []]
        counts = shortest_path_tree_demand(adj2, 0, {2: 5.0, 1: 1.0})
        assert counts == {0: 1.0}
