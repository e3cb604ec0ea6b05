"""Unit tests for the randomized greedy graph coloring solver.

The solver reads plain adjacency mappings; networkx is the test-side oracle
(:func:`nx_randomized_coloring`) and a networkx graph is also valid input.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizers import (
    greedy_coloring,
    is_proper_coloring,
    randomized_greedy_coloring,
)


class TestGreedyColoring:
    def test_triangle_needs_three_colors(self):
        graph = nx.cycle_graph(3)
        result = greedy_coloring(graph, [0, 1, 2])
        assert result.n_colors == 3
        assert is_proper_coloring(graph, result.colors)

    def test_path_needs_two_colors(self):
        graph = nx.path_graph(5)
        result = randomized_greedy_coloring(graph, n_orders=10, rng=np.random.default_rng(0))
        assert result.n_colors == 2
        assert is_proper_coloring(graph, result.colors)

    def test_empty_graph(self):
        result = randomized_greedy_coloring(nx.Graph(), rng=np.random.default_rng(0))
        assert result.n_colors == 0
        assert result.largest_color_class() == set()

    def test_isolated_vertices_one_color(self):
        graph = nx.empty_graph(6)
        result = randomized_greedy_coloring(graph, rng=np.random.default_rng(0))
        assert result.n_colors == 1
        assert len(result.largest_color_class()) == 6

    def test_adjacency_dict_input(self):
        adjacency = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        result = randomized_greedy_coloring(adjacency, rng=np.random.default_rng(1))
        assert result.n_colors == 2
        assert is_proper_coloring(adjacency, result.colors)

    def test_invalid_n_orders(self):
        with pytest.raises(ValueError):
            randomized_greedy_coloring(nx.path_graph(3), n_orders=0)

    def test_color_classes_partition_vertices(self):
        graph = nx.gnp_random_graph(12, 0.4, seed=3)
        result = randomized_greedy_coloring(graph, rng=np.random.default_rng(3))
        classes = result.color_classes()
        all_vertices = set().union(*classes) if classes else set()
        assert all_vertices == set(graph.nodes)
        assert sum(len(c) for c in classes) == graph.number_of_nodes()

    def test_bipartite_graph_two_colors(self):
        graph = nx.complete_bipartite_graph(4, 5)
        result = randomized_greedy_coloring(graph, n_orders=20, rng=np.random.default_rng(5))
        assert result.n_colors == 2
        assert len(result.largest_color_class()) == 5


class TestPaperColoringExample:
    """Appendix A, Fig. 6(c): the reduced 5-vertex hybrid-term graph."""

    def graph(self):
        # Vertices h0, h1, h5, h6, h7; edges from Fig. 6(b): h0-h1, h1-h5,
        # h5-h6 and h6-h7 (a path).
        graph = nx.Graph()
        graph.add_edges_from(
            [("h0", "h1"), ("h1", "h5"), ("h5", "h6"), ("h6", "h7")]
        )
        return graph

    def test_order_one_reproduces_paper_coloring(self):
        # Order 1 in the paper (h1, h5, h0, h6, h7) uses two colors and its
        # largest color class is {h0, h5, h7} — exactly the S_color set the
        # paper compiles in compressed form.
        result = greedy_coloring(self.graph(), ["h1", "h5", "h0", "h6", "h7"])
        assert result.n_colors == 2
        assert is_proper_coloring(self.graph(), result.colors)
        assert result.largest_color_class() == {"h0", "h5", "h7"}

    def test_order_two_needs_three_colors(self):
        # Order 2 in the paper: h1, h7, h6, h5, h0 requires a third color.
        result = greedy_coloring(self.graph(), ["h1", "h7", "h6", "h5", "h0"])
        assert result.n_colors == 3

    def test_randomized_search_finds_two_coloring(self):
        result = randomized_greedy_coloring(
            self.graph(), n_orders=30, rng=np.random.default_rng(7)
        )
        assert result.n_colors == 2
        assert len(result.largest_color_class()) == 3


class TestPropertyBased:
    @given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.0, max_value=0.8), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_colorings_always_proper(self, n, p, seed):
        graph = nx.gnp_random_graph(n, p, seed=seed)
        result = randomized_greedy_coloring(graph, n_orders=5, rng=np.random.default_rng(seed))
        assert is_proper_coloring(graph, result.colors)
        assert result.n_colors <= n


def nx_greedy(graph: nx.Graph, order):
    colors, usage = {}, []
    for vertex in order:
        forbidden = {colors[n] for n in graph.neighbors(vertex) if n in colors}
        allowed = [c for c in range(len(usage)) if c not in forbidden]
        if allowed:
            chosen = max(allowed, key=lambda c: (usage[c], -c))
        else:
            chosen = len(usage)
            usage.append(0)
        colors[vertex] = chosen
        usage[chosen] += 1
    return colors, len(usage)


def nx_randomized_coloring(graph: nx.Graph, n_orders, rng):
    """Best of ``n_orders`` greedy colorings over shuffles of ``graph.nodes``."""
    best = None
    for _ in range(n_orders):
        order = list(graph.nodes)
        rng.shuffle(order)
        colors, n_colors = nx_greedy(graph, order)
        largest = max(({v for v in colors if colors[v] == k} for k in range(n_colors)), key=len)
        key = (n_colors, -len(largest))
        if best is None or key < best[0]:
            best = (key, colors)
    return best[1]


def _graph(nodes, edges):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


#: Random undirected graphs: node labels inserted in a shuffled order, and
#: edges that may repeat, loop or name a vertex twice.
graphs = st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    )
).map(lambda spec: _graph(*spec))


class TestNetworkxOracle:
    """Same colorings and the same rng draws as the networkx implementation."""

    @given(graphs, st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_randomized_coloring_matches(self, graph, n_orders, seed):
        oracle_rng = np.random.default_rng(seed)
        expected = nx_randomized_coloring(graph, n_orders, oracle_rng)
        # One direction of every edge, keys in node order, is enough input.
        one_way = {v: [u for u in graph[v] if u >= v] for v in graph}
        for adjacency in (graph, nx.to_dict_of_lists(graph), one_way):
            rng = np.random.default_rng(seed)
            result = randomized_greedy_coloring(adjacency, n_orders=n_orders, rng=rng)
            assert list(result.colors.items()) == list(expected.items())
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(graphs, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_greedy_and_proper_check_match(self, graph, random):
        order = list(graph.nodes)
        random.shuffle(order)
        colors, n_colors = nx_greedy(graph, order)
        result = greedy_coloring(nx.to_dict_of_lists(graph), order)
        assert (result.colors, result.n_colors) == (colors, n_colors)
        arbitrary = {v: random.randrange(3) for v in graph}
        expected = all(arbitrary[u] != arbitrary[v] for u, v in graph.edges if u != v)
        assert is_proper_coloring(nx.to_dict_of_lists(graph), arbitrary) == expected
