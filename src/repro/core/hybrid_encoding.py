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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


def build_symmetry_graph(hybrid_terms: Sequence[ExcitationTerm]) -> Dict[int, List[int]]:
    """Successor lists: ``graph[i]`` holds every ``j`` whose symmetry term ``i`` breaks.

    Applying term ``i`` breaks term ``j``'s pair symmetry iff it flips the
    number parity of ``j``'s symmetric pair ``{a, b}``, i.e. iff an odd
    number of ``i``'s ladder indices lies in ``{a, b}``.  (The paper states
    the equivalent sufficient condition in its index convention; the scalar
    rule lives beside the differential test in
    ``tests/core/test_hybrid_encoding.py``.)  On bit masks: ``parity[i]``
    flips bit ``k`` once per ladder index ``k`` of term ``i``, ``pair[j]``
    holds term ``j``'s symmetric pair (0 without one), and ``i`` breaks
    ``j`` iff ``parity[i] & pair[j]`` has an odd number of bits.  Vertices
    are ``0..n-1`` in order and each successor list is ascending, the order
    the coloring's draws follow.
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
    return {
        i: [j for j, pair in enumerate(pair_masks) if i != j and (flips & pair).bit_count() & 1]
        for i, flips in enumerate(parity)
    }


def _peel(
    out_edges: Dict[int, Dict[int, None]], in_edges: Dict[int, Dict[int, None]]
) -> List[int]:
    """Remove every vertex without out-edges from both maps; return them sorted."""
    peeled = [vertex for vertex, targets in out_edges.items() if not targets]
    for vertex in peeled:
        del out_edges[vertex]
        for source in in_edges.pop(vertex):
            del out_edges[source][vertex]
    return sorted(peeled)


def reduce_graph(
    graph: Mapping[int, Iterable[int]],
) -> Tuple[List[int], List[int], Dict[int, List[int]]]:
    """Iteratively peel sinks and sources off the symmetry graph.

    ``graph`` maps each vertex to its successors (a networkx ``DiGraph``
    reads the same way).  Returns ``(sinks, sources, core)``: sink vertices
    (no outgoing edges — they break nobody, so they are implemented first),
    source vertices (no incoming edges — nobody breaks them, so they are
    implemented last) and the remaining core as successor lists, vertices
    and successors in the order ``graph`` lists them.  Peeling repeats until
    no sink or source is left, as in the paper's graph-reduction step.
    """
    successors: Dict[int, Dict[int, None]] = {vertex: {} for vertex in graph}
    predecessors: Dict[int, Dict[int, None]] = {vertex: {} for vertex in graph}
    for vertex in graph:
        for target in graph[vertex]:
            successors[vertex][target] = None
            successors.setdefault(target, {})
            predecessors.setdefault(target, {})[vertex] = None
    sinks: List[int] = []
    sources: List[int] = []
    while successors:
        sink_vertices = _peel(successors, predecessors)
        source_vertices = _peel(predecessors, successors)
        if not sink_vertices and not source_vertices:
            break
        sinks.extend(sink_vertices)
        sources.extend(source_vertices)
    return sinks, sources, {vertex: list(targets) for vertex, targets in successors.items()}


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
    remaining = set(core)
    if core:
        coloring = randomized_greedy_coloring(core, n_orders=n_coloring_orders, rng=rng)
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
