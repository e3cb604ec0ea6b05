"""The paper's primary contribution: advanced compilation of fermionic VQE circuits.

* :mod:`~repro.core.hybrid_encoding` — Sec. III-A (parity-symmetry
  classification, directed-graph reduction, graph-coloring scheduling);
* :mod:`~repro.core.advanced_sorting` — Sec. III-B (GTSP over Pauli rotations
  with per-rotation target qubits), plus the prior art's term-block order;
* :mod:`~repro.core.gamma_search` — Sec. III-C (block-diagonal GL(N,2)
  transformation search via simulated annealing);
* :mod:`~repro.core.pipeline` — the full Fig. 2 flow combining the three.
"""

from repro.core.advanced_sorting import (
    SortingResult,
    advanced_sort,
    baseline_order_cnot_count,
    build_sorting_problem,
    greedy_sort,
    term_block_order,
)
from repro.core.config import CompilerConfig
from repro.core.gamma_search import (
    GammaSearchResult,
    GreedySortingCost,
    TermBlockCost,
    assemble_gamma,
    excitation_topology_blocks,
    search_block_diagonal_gamma,
)
from repro.core.hybrid_encoding import (
    BOSONIC_TERM_CNOT_COST,
    HYBRID_TERM_CNOT_COST,
    HybridSchedule,
    build_symmetry_graph,
    classify_terms,
    reduce_graph,
    schedule_hybrid_terms,
    symmetric_pair,
)
from repro.core.pipeline import (
    DEFAULT_STAGES,
    AdvancedCompilationResult,
    AdvancedPipeline,
    StageContext,
    StageFailure,
    account_stage,
    classify_stage,
    fold_bosonic_stage,
    fold_hybrid_stage,
    gamma_search_stage,
    identity_gamma_stage,
    naive_sort_stage,
    schedule_hybrid_stage,
    sort_stage,
    transform_stage,
)
from repro.core.terms_to_paulis import (
    PauliRotation,
    RotationPlanes,
    required_qubits,
    terms_to_rotations,
)

__all__ = [
    "AdvancedCompilationResult",
    "AdvancedPipeline",
    "CompilerConfig",
    "StageContext",
    "StageFailure",
    "DEFAULT_STAGES",
    "classify_stage",
    "schedule_hybrid_stage",
    "gamma_search_stage",
    "transform_stage",
    "sort_stage",
    "naive_sort_stage",
    "fold_bosonic_stage",
    "fold_hybrid_stage",
    "identity_gamma_stage",
    "account_stage",
    "term_block_order",
    "HybridSchedule",
    "classify_terms",
    "schedule_hybrid_terms",
    "build_symmetry_graph",
    "reduce_graph",
    "symmetric_pair",
    "BOSONIC_TERM_CNOT_COST",
    "HYBRID_TERM_CNOT_COST",
    "SortingResult",
    "advanced_sort",
    "greedy_sort",
    "baseline_order_cnot_count",
    "build_sorting_problem",
    "GammaSearchResult",
    "GreedySortingCost",
    "TermBlockCost",
    "search_block_diagonal_gamma",
    "excitation_topology_blocks",
    "assemble_gamma",
    "PauliRotation",
    "RotationPlanes",
    "terms_to_rotations",
    "required_qubits",
]
