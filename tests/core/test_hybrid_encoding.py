"""Tests for hybrid encoding: classification, symmetry graph, GVCP scheduling.

Includes a full reproduction of the Appendix A worked example of the paper
(shifted to 0-based spin-orbital indices so that the compressible pairs are
the interleaved (2k, 2k+1) spin pairs).
"""

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    HYBRID_TERM_CNOT_COST,
    breaks_symmetry,
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
        edges = {(names[u], names[v]) for u, v in graph.edges}
        expected = {
            ("h1", "h0"), ("h8", "h0"), ("h0", "h1"), ("h5", "h1"),
            ("h1", "h2"), ("h6", "h2"), ("h1", "h3"), ("h6", "h3"),
            ("h1", "h5"), ("h6", "h5"), ("h4", "h6"), ("h5", "h6"),
            ("h7", "h6"), ("h6", "h7"), ("h8", "h7"),
        }
        assert edges == expected

    def test_appendix_reduction(self):
        graph, _ = self.graph()
        sinks, sources, core = reduce_graph(graph)
        assert {APPENDIX_ORDER[i] for i in sinks} == {"h2", "h3"}
        assert {APPENDIX_ORDER[i] for i in sources} == {"h4", "h8"}
        assert {APPENDIX_ORDER[i] for i in core.nodes} == {"h0", "h1", "h5", "h6", "h7"}
        # The undirected core is the path h0-h1-h5-h6-h7 of Fig. 6(b).
        undirected = core.to_undirected()
        core_edges = {
            frozenset((APPENDIX_ORDER[u], APPENDIX_ORDER[v])) for u, v in undirected.edges
        }
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
            assert list(graph.nodes) == list(range(len(terms)))
            assert list(graph.edges) == expected

    def test_empty_graph_reduction(self):
        sinks, sources, core = reduce_graph(nx.DiGraph())
        assert sinks == [] and sources == [] and core.number_of_nodes() == 0

    def test_isolated_vertices_become_sinks(self):
        graph = nx.DiGraph()
        graph.add_nodes_from([0, 1, 2])
        sinks, sources, core = reduce_graph(graph)
        assert set(sinks) == {0, 1, 2}
        assert core.number_of_nodes() == 0


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
