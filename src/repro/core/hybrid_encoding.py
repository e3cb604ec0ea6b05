"""Hybrid encoding: symmetry-preserving scheduling of compressible excitation terms.

Section III-A of the paper.  A *hybrid* double excitation has exactly one of
its two index pairs equal to a same-spatial-orbital spin pair ``(2k, 2k+1)``.
When the input state is an eigenstate of the pair's number-parity operator the
term can be compiled in compressed form at 7 CNOTs (Fig. 3(a)) instead of the
≥13 CNOTs of a generic double excitation.  Whether the symmetry survives until
a given term is applied depends on the order in which terms are implemented,
so the scheduling problem is mapped onto a directed graph:

* vertex = hybrid term,
* edge ``h_i → h_j`` whenever implementing ``h_i`` breaks the pair symmetry
  ``h_j`` needs (i.e. ``h_i`` anti-commutes with ``h_j``'s parity operator),

which is then reduced by iteratively peeling sinks (implemented first) and
sources (implemented last), and the remaining core is attacked with graph
vertex coloring: the largest color class is an independent set whose members
can all be compressed.  Everything else is folded back into the fermionic
compilation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.optimizers import randomized_greedy_coloring
from repro.vqe import ExcitationTerm

#: CNOT cost of a compressed hybrid double excitation (Fig. 3(a) of the paper).
HYBRID_TERM_CNOT_COST = 7

#: CNOT cost of a compressed bosonic double excitation ([8]).
BOSONIC_TERM_CNOT_COST = 2


def symmetric_pair(term: ExcitationTerm) -> Optional[Tuple[int, int]]:
    """The same-spatial-orbital spin pair whose parity symmetry the term exploits.

    For a hybrid term exactly one of the creation/annihilation pairs is such a
    pair; for a bosonic term both are (the creation pair is returned); for
    fermionic terms ``None`` is returned.
    """
    if not term.is_double:
        return None
    if term.creation_is_spin_pair:
        return term.creation
    if term.annihilation_is_spin_pair:
        return term.annihilation
    return None


def breaks_symmetry(breaker: ExcitationTerm, protected: ExcitationTerm) -> bool:
    """True if applying ``breaker`` destroys the pair symmetry ``protected`` relies on.

    The exact criterion: the exponential of ``breaker`` commutes with the
    number-parity operator ``P_ab`` of ``protected``'s symmetric pair iff the
    total number of ``breaker``'s ladder indices lying in ``{a, b}`` is even.
    An odd count flips the parity and breaks the symmetry.  (The paper states
    the equivalent sufficient condition specialized to its index convention.)
    """
    pair = symmetric_pair(protected)
    if pair is None:
        return False
    pair_set = set(pair)
    touches = sum(1 for index in breaker.creation if index in pair_set)
    touches += sum(1 for index in breaker.annihilation if index in pair_set)
    return touches % 2 == 1


def build_symmetry_graph(hybrid_terms: Sequence[ExcitationTerm]) -> nx.DiGraph:
    """Directed graph with an edge ``i -> j`` when term ``i`` breaks term ``j``'s symmetry.

    The criterion of :func:`breaks_symmetry`, on bit masks: ``parity[i]``
    flips bit ``k`` once per ladder index ``k`` of term ``i``, ``pair[j]``
    holds term ``j``'s symmetric pair (0 without one), and ``i`` breaks
    ``j`` iff ``parity[i] & pair[j]`` has an odd number of bits.  Edges are
    added ``i``-major, ``j``-minor, the order the coloring's draws follow.
    """
    parity = []
    pair_masks = []
    for term in hybrid_terms:
        mask = 0
        for index in (*term.creation, *term.annihilation):
            mask ^= 1 << index
        parity.append(mask)
        pair = symmetric_pair(term)
        pair_masks.append(0 if pair is None else (1 << pair[0]) | (1 << pair[1]))
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(hybrid_terms)))
    graph.add_edges_from(
        (i, j)
        for i, flips in enumerate(parity)
        for j, pair in enumerate(pair_masks)
        if i != j and (flips & pair).bit_count() & 1
    )
    return graph


def reduce_graph(graph: nx.DiGraph) -> Tuple[List[int], List[int], nx.DiGraph]:
    """Iteratively peel sinks and sources off the symmetry graph.

    Returns ``(sinks, sources, core)``: sink vertices (no outgoing edges — they
    break nobody, so they are implemented first), source vertices (no incoming
    edges — nobody breaks them, so they are implemented last) and the remaining
    core graph.  Peeling repeats until no sink or source is left, as in the
    paper's graph-reduction step.
    """
    working = graph.copy()
    sinks: List[int] = []
    sources: List[int] = []
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


@dataclass
class HybridSchedule:
    """Outcome of the hybrid-encoding scheduling for a set of hybrid terms.

    The compressed circuit has the structure ``C_source · C_color · C_sink``
    (sinks first in time); terms in ``uncompressed`` are folded into the
    fermionic compilation path.
    """

    sink_terms: List[ExcitationTerm]
    color_terms: List[ExcitationTerm]
    source_terms: List[ExcitationTerm]
    uncompressed_terms: List[ExcitationTerm]
    n_colors: int = 0

    @property
    def compressed_terms(self) -> List[ExcitationTerm]:
        """All terms that will be implemented in compressed (7-CNOT) form."""
        return self.sink_terms + self.color_terms + self.source_terms

    @property
    def n_compressed(self) -> int:
        return len(self.compressed_terms)

    @property
    def compressed_cnot_count(self) -> int:
        return HYBRID_TERM_CNOT_COST * self.n_compressed


def schedule_hybrid_terms(
    hybrid_terms: Sequence[ExcitationTerm],
    n_coloring_orders: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> HybridSchedule:
    """Schedule hybrid terms for maximal compression (Sec. III-A solution).

    1. Build the directed symmetry graph.
    2. Peel sinks (implement first) and sources (implement last).
    3. Color the undirected core with the randomized greedy GVCP solver and
       compress the largest color class.
    4. Everything else is left uncompressed.
    """
    hybrid_terms = list(hybrid_terms)
    if not hybrid_terms:
        return HybridSchedule([], [], [], [], n_colors=0)
    for term in hybrid_terms:
        if term.encoding_class != "hybrid":
            raise ValueError(f"term {term} is not hybrid")

    graph = build_symmetry_graph(hybrid_terms)
    sinks, sources, core = reduce_graph(graph)

    color_indices: List[int] = []
    n_colors = 0
    remaining = set(core.nodes)
    if core.number_of_nodes() > 0:
        coloring = randomized_greedy_coloring(
            core.to_undirected(), n_orders=n_coloring_orders, rng=rng
        )
        n_colors = coloring.n_colors
        color_indices = sorted(coloring.largest_color_class())
        remaining -= set(color_indices)

    return HybridSchedule(
        sink_terms=[hybrid_terms[i] for i in sinks],
        color_terms=[hybrid_terms[i] for i in color_indices],
        source_terms=[hybrid_terms[i] for i in sources],
        uncompressed_terms=[hybrid_terms[i] for i in sorted(remaining)],
        n_colors=n_colors,
    )


def classify_terms(
    terms: Sequence[ExcitationTerm],
) -> Dict[str, List[ExcitationTerm]]:
    """Partition excitation terms into bosonic / hybrid / fermionic classes."""
    classes: Dict[str, List[ExcitationTerm]] = {"bosonic": [], "hybrid": [], "fermionic": []}
    for term in terms:
        classes[term.encoding_class].append(term)
    return classes
