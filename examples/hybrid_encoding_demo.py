"""Walk through the hybrid-encoding scheduling on the paper's Appendix A example.

Reconstructs the nine hybrid double-excitation terms of Appendix A (shifted to
0-based indices), builds the directed symmetry graph, peels sinks and sources,
colors the remaining core with the randomized greedy GVCP solver, and reports
which terms end up compressed at 7 CNOTs versus folded back into the fermionic
compilation path — reproducing S_sink = {h2, h3}, S_source = {h4, h8} and
S_color = {h0, h5, h7}.

The same scheduling runs inside the advanced backend's ``schedule_hybrid``
stage; the demo closes by compiling the nine terms through
``get_backend("advanced")`` and showing the per-segment CNOT breakdown the
:class:`repro.api.CompileResult` reports.

Run with:  python examples/hybrid_encoding_demo.py
"""

import numpy as np

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.core import (
    HYBRID_TERM_CNOT_COST,
    build_symmetry_graph,
    reduce_graph,
    schedule_hybrid_terms,
)
from repro.vqe import ExcitationTerm


def appendix_terms():
    """The nine hybrid terms of Appendix A, shifted to 0-based spin orbitals."""
    raw = {
        "h0": ((8, 11), (2, 3)),
        "h1": ((10, 11), (2, 5)),
        "h2": ((19, 20), (4, 5)),
        "h3": ((18, 21), (4, 5)),
        "h4": ((12, 15), (0, 1)),
        "h5": ((10, 13), (4, 5)),
        "h6": ((12, 13), (4, 7)),
        "h7": ((12, 15), (6, 7)),
        "h8": ((16, 17), (2, 7)),
    }
    return {
        name: ExcitationTerm(creation=creation, annihilation=annihilation)
        for name, (creation, annihilation) in raw.items()
    }


def main() -> None:
    terms = appendix_terms()
    names = list(terms)
    term_list = [terms[name] for name in names]

    print("Hybrid terms and their symmetric spin pairs:")
    for name, term in terms.items():
        print(f"  {name}: {term!r}")

    graph = build_symmetry_graph(term_list)
    edges = [(u, v) for u, successors in graph.items() for v in successors]
    print(f"\nSymmetry graph: {len(graph)} vertices, {len(edges)} edges")
    for u, v in edges:
        print(f"  {names[u]} -> {names[v]}   ({names[u]} breaks the symmetry {names[v]} needs)")

    sinks, sources, core = reduce_graph(graph)
    print(f"\nSinks   (implemented first): {[names[i] for i in sinks]}")
    print(f"Sources (implemented last) : {[names[i] for i in sources]}")
    print(f"Core vertices for coloring : {[names[i] for i in core]}")

    schedule = schedule_hybrid_terms(term_list, rng=np.random.default_rng(0))
    index_of = {id(term): name for name, term in terms.items()}
    print(f"\nLargest color class (compressed): "
          f"{sorted(index_of[id(t)] for t in schedule.color_terms)}")
    print(f"Left uncompressed (folded into fermionic path): "
          f"{sorted(index_of[id(t)] for t in schedule.uncompressed_terms)}")
    print(f"\nCompressed terms: {schedule.n_compressed} x {HYBRID_TERM_CNOT_COST} CNOTs "
          f"= {schedule.compressed_cnot_count} CNOTs")
    print("Without compression each of these double excitations costs at least 13 CNOTs.")

    # The full advanced backend runs this scheduling as its schedule_hybrid
    # stage; the result's breakdown separates the compressed segments from
    # the fermionic remainder.
    request = CompileRequest(
        terms=tuple(term_list),
        config=CompilerConfig(gamma_steps=10, seed=0),
    )
    result = get_backend("advanced").compile(request)
    print(f"\nFull advanced compilation of the nine terms "
          f"({result.n_qubits} qubits): {result.cnot_count} CNOTs")
    print(f"Breakdown: {result.breakdown}")


if __name__ == "__main__":
    main()
