"""Tests for hybrid encoding: classification, symmetry graph, GVCP scheduling.

Includes a full reproduction of the Appendix A worked example of the paper
(shifted to 0-based spin-orbital indices so that the compressible pairs are
the interleaved (2k, 2k+1) spin pairs).  The scalar symmetry-breaking rule
:func:`breaks_symmetry` and a networkx sink/source peeling are the oracles of
the bit-mask graph and of :func:`repro.core.reduce_graph`.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HYBRID_TERM_CNOT_COST,
    build_symmetry_graph,
    classify_terms,
    reduce_graph,
    schedule_hybrid_terms,
    symmetric_pair,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.vqe import ExcitationTerm, select_ansatz_terms


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


def breaks_symmetry(breaker: ExcitationTerm, protected: ExcitationTerm) -> bool:
    """True if applying ``breaker`` destroys the pair symmetry ``protected`` relies on.

    The exact criterion: the exponential of ``breaker`` commutes with the
    number-parity operator ``P_ab`` of ``protected``'s symmetric pair iff the
    total number of ``breaker``'s ladder indices lying in ``{a, b}`` is even.
    An odd count flips the parity and breaks the symmetry.
    """
    pair = symmetric_pair(protected)
    if pair is None:
        return False
    touches = sum(1 for index in (*breaker.creation, *breaker.annihilation) if index in pair)
    return touches % 2 == 1


def edges(graph):
    return [(u, v) for u in graph for v in graph[u]]


def nx_reduce(graph: nx.DiGraph):
    """Peel sinks then sources off a networkx copy until neither is left."""
    working = graph.copy()
    sinks, sources = [], []
    changed = True
    while changed and working.number_of_nodes() > 0:
        changed = False
        sink_vertices = [v for v in working.nodes if working.out_degree(v) == 0]
        if sink_vertices:
            sinks.extend(sorted(sink_vertices))
            working.remove_nodes_from(sink_vertices)
            changed = True
        source_vertices = [v for v in working.nodes if working.in_degree(v) == 0]
        if source_vertices:
            sources.extend(sorted(source_vertices))
            working.remove_nodes_from(source_vertices)
            changed = True
    return sinks, sources, working


#: Appendix A terms, shifted down by one so pairs are (even, even+1).
APPENDIX_TERMS = {
    "h0": term((8, 11), (2, 3)),
    "h1": term((10, 11), (2, 5)),
    "h2": term((19, 20), (4, 5)),
    "h3": term((18, 21), (4, 5)),
    "h4": term((12, 15), (0, 1)),
    "h5": term((10, 13), (4, 5)),
    "h6": term((12, 13), (4, 7)),
    "h7": term((12, 15), (6, 7)),
    "h8": term((16, 17), (2, 7)),
}
APPENDIX_ORDER = [f"h{i}" for i in range(9)]


class TestClassification:
    def test_symmetric_pair_detection(self):
        assert symmetric_pair(term((2, 3), (0, 1))) == (2, 3)
        assert symmetric_pair(term((2, 5), (0, 1))) == (0, 1)
        assert symmetric_pair(term((2, 5), (0, 7))) is None
        assert symmetric_pair(term((4,), (0,))) is None

    def test_classify_terms_partition(self):
        terms = [
            term((2, 3), (0, 1)),   # bosonic
            term((2, 3), (0, 5)),   # hybrid
            term((2, 5), (0, 7)),   # fermionic
            term((4,), (0,)),       # single -> fermionic
        ]
        classes = classify_terms(terms)
        assert len(classes["bosonic"]) == 1
        assert len(classes["hybrid"]) == 1
        assert len(classes["fermionic"]) == 2

    def test_appendix_terms_are_all_hybrid(self):
        assert all(t.encoding_class == "hybrid" for t in APPENDIX_TERMS.values())


class TestSymmetryBreaking:
    def test_parity_preserving_term_does_not_break(self):
        # A term acting on both members of the pair preserves its parity.
        protected = term((2, 3), (4, 9))       # pair (2, 3)
        breaker = term((6, 7), (2, 3))         # annihilates the whole pair
        assert not breaks_symmetry(breaker, protected)

    def test_single_touch_breaks(self):
        protected = term((2, 3), (4, 9))       # pair (2, 3)
        breaker = term((6, 7), (3, 8))         # touches only orbital 3
        assert breaks_symmetry(breaker, protected)

    def test_fermionic_protected_term_never_breaks(self):
        protected = term((2, 5), (4, 9))       # no symmetric pair
        breaker = term((6, 7), (2, 3))
        assert not breaks_symmetry(breaker, protected)

    def test_paper_ordering_example(self):
        """Sec. III-A example: h1 = c†2c†3 c5 c6, h2 = c†4c†5 c7 c8 (1-based).

        Shifted to 0-based: h1 = (1,2 -> creation 1,2? ) — we instead encode the
        physics directly: h1's symmetric pair is (4, 5) and h2 annihilates
        orbital (4? ) ... Applying h2 first breaks h1's symmetry, while h1 does
        not break h2 (h2 has no symmetric pair on (4,5)-adjacent orbitals).
        """
        h1 = term((2, 3), (4, 5))   # pair on creation (2,3); uses (4,5) as plain indices
        h2 = term((4, 7), (6, 9))   # touches orbital 4 only
        # The relevant pair of h1 is its creation pair (2, 3); h2 never touches
        # it, so h2 does not break h1.
        assert not breaks_symmetry(h2, h1)
        # A term annihilating exactly one of h1's pair members breaks it.
        h3 = term((6, 9), (3, 8))
        assert breaks_symmetry(h3, h1)


class TestGraphConstructionAndReduction:
    def graph(self):
        terms = [APPENDIX_TERMS[name] for name in APPENDIX_ORDER]
        return build_symmetry_graph(terms), terms

    def test_appendix_edges(self):
        graph, _ = self.graph()
        names = {i: APPENDIX_ORDER[i] for i in range(9)}
        named = {(names[u], names[v]) for u, v in edges(graph)}
        expected = {
            ("h1", "h0"), ("h8", "h0"), ("h0", "h1"), ("h5", "h1"),
            ("h1", "h2"), ("h6", "h2"), ("h1", "h3"), ("h6", "h3"),
            ("h1", "h5"), ("h6", "h5"), ("h4", "h6"), ("h5", "h6"),
            ("h7", "h6"), ("h6", "h7"), ("h8", "h7"),
        }
        assert named == expected

    def test_appendix_reduction(self):
        graph, _ = self.graph()
        sinks, sources, core = reduce_graph(graph)
        assert {APPENDIX_ORDER[i] for i in sinks} == {"h2", "h3"}
        assert {APPENDIX_ORDER[i] for i in sources} == {"h4", "h8"}
        assert {APPENDIX_ORDER[i] for i in core} == {"h0", "h1", "h5", "h6", "h7"}
        # The undirected core is the path h0-h1-h5-h6-h7 of Fig. 6(b).
        core_edges = {frozenset((APPENDIX_ORDER[u], APPENDIX_ORDER[v])) for u, v in edges(core)}
        assert core_edges == {
            frozenset(("h0", "h1")),
            frozenset(("h1", "h5")),
            frozenset(("h5", "h6")),
            frozenset(("h6", "h7")),
        }

    @pytest.mark.parametrize("molecule", ["LiH", "BeH2", "H2O", "NH3"])
    def test_graph_matches_scalar_rule(self, molecule):
        """The bit-mask graph has exactly the edges of the scalar
        :func:`breaks_symmetry`, in the scalar loop's i-major, j-minor order,
        over every hybrid term of the molecule's HMP2 ranking."""
        hamiltonian = build_molecular_hamiltonian(
            run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
        )
        hybrid = classify_terms(select_ansatz_terms(hamiltonian))["hybrid"]
        assert hybrid
        for terms in (hybrid, hybrid[::-1], [APPENDIX_TERMS[name] for name in APPENDIX_ORDER]):
            expected = [
                (i, j)
                for i, breaker in enumerate(terms)
                for j, protected in enumerate(terms)
                if i != j and breaks_symmetry(breaker, protected)
            ]
            graph = build_symmetry_graph(terms)
            assert list(graph) == list(range(len(terms)))
            assert edges(graph) == expected

    def test_empty_graph_reduction(self):
        sinks, sources, core = reduce_graph({})
        assert sinks == [] and sources == [] and core == {}

    def test_isolated_vertices_become_sinks(self):
        sinks, sources, core = reduce_graph({0: [], 1: [], 2: []})
        assert set(sinks) == {0, 1, 2}
        assert core == {}

    def test_networkx_digraph_input(self):
        graph = nx.DiGraph([(0, 1), (1, 2), (2, 1), (3, 1)])
        assert reduce_graph(graph) == reduce_graph({0: [1], 1: [2], 2: [1], 3: [1]})


#: Random directed graphs on up to 9 vertices, self-loops included, listed
#: vertex by vertex in a shuffled order.
digraphs = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    )
)


class TestNetworkxOracle:
    """``reduce_graph`` against the networkx peeling it replaced."""

    @given(digraphs)
    @settings(max_examples=200, deadline=None)
    def test_reduction_matches_networkx(self, spec):
        order, arcs = spec
        oracle = nx.DiGraph()
        oracle.add_nodes_from(order)
        oracle.add_edges_from(arcs)
        sinks, sources, core = reduce_graph({v: list(oracle.successors(v)) for v in oracle})
        nx_sinks, nx_sources, nx_core = nx_reduce(oracle)
        assert (sinks, sources) == (nx_sinks, nx_sources)
        assert list(core) == list(nx_core.nodes)
        assert edges(core) == list(nx_core.edges)

    @given(st.lists(
        st.tuples(st.sampled_from([(0, 1), (2, 3), (4, 5), (6, 7)]),
                  st.sets(st.integers(0, 9), min_size=2, max_size=2).map(sorted),
                  st.booleans()),
        max_size=10,
    ), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_schedule_matches_networkx_pipeline(self, specs, seed):
        """Random hybrid terms: the schedule and the rng's state after it are
        those of the networkx graph, peeling and undirected core coloring."""
        terms = []
        for pair, other, pair_creates in specs:
            if set(pair) & set(other) or other[0] // 2 == other[1] // 2:
                continue
            creation, annihilation = (pair, tuple(other)) if pair_creates else (tuple(other), pair)
            terms.append(term(creation, annihilation))
        rng = np.random.default_rng(seed)
        schedule = schedule_hybrid_terms(terms, rng=rng)

        oracle = nx.DiGraph()
        oracle.add_nodes_from(range(len(terms)))
        oracle.add_edges_from(
            (i, j) for i, a in enumerate(terms) for j, b in enumerate(terms)
            if i != j and breaks_symmetry(a, b)
        )
        sinks, sources, core = nx_reduce(oracle)
        oracle_rng = np.random.default_rng(seed)
        colored = []
        if core.number_of_nodes():
            undirected = core.to_undirected()
            best = None
            for _ in range(20):
                order = list(undirected.nodes)
                oracle_rng.shuffle(order)
                colors, usage = {}, []
                for vertex in order:
                    forbidden = {colors[n] for n in undirected.neighbors(vertex) if n in colors}
                    allowed = [c for c in range(len(usage)) if c not in forbidden]
                    chosen = max(allowed, key=lambda c: (usage[c], -c)) if allowed else len(usage)
                    if chosen == len(usage):
                        usage.append(0)
                    colors[vertex] = chosen
                    usage[chosen] += 1
                largest = max(
                    ({v for v, c in colors.items() if c == k} for k in range(len(usage))), key=len
                )
                key = (len(usage), -len(largest))
                if best is None or key < best[0]:
                    best = (key, largest)
            colored = sorted(best[1])
        assert schedule.sink_terms == [terms[i] for i in sinks]
        assert schedule.source_terms == [terms[i] for i in sources]
        assert schedule.color_terms == [terms[i] for i in colored]
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestScheduling:
    def test_appendix_schedule(self):
        terms = [APPENDIX_TERMS[name] for name in APPENDIX_ORDER]
        schedule = schedule_hybrid_terms(terms, rng=np.random.default_rng(0))
        by_name = {id(t): name for name, t in APPENDIX_TERMS.items()}
        assert {by_name[id(t)] for t in schedule.sink_terms} == {"h2", "h3"}
        assert {by_name[id(t)] for t in schedule.source_terms} == {"h4", "h8"}
        assert {by_name[id(t)] for t in schedule.color_terms} == {"h0", "h5", "h7"}
        assert {by_name[id(t)] for t in schedule.uncompressed_terms} == {"h1", "h6"}
        assert schedule.n_compressed == 7
        assert schedule.compressed_cnot_count == 7 * HYBRID_TERM_CNOT_COST
        assert schedule.n_colors == 2

    def test_empty_schedule(self):
        schedule = schedule_hybrid_terms([])
        assert schedule.n_compressed == 0
        assert schedule.compressed_cnot_count == 0

    def test_non_hybrid_term_rejected(self):
        with pytest.raises(ValueError):
            schedule_hybrid_terms([term((2, 3), (0, 1))])

    def test_independent_terms_all_compressed(self):
        terms = [term((8, 9), (0, 1)), term((10, 11), (2, 7)), term((12, 13), (4, 15))]
        # Make them hybrid (one pair only): adjust first term to be hybrid.
        terms[0] = term((8, 9), (0, 5))
        schedule = schedule_hybrid_terms(terms, rng=np.random.default_rng(1))
        assert schedule.n_compressed == 3
        assert schedule.uncompressed_terms == []
