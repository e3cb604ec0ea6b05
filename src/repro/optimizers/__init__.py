"""Classical optimization solvers backing the compilation pipeline.

The Γ search of Sec. III-C runs its own simulated-annealing walk in
:func:`repro.core.gamma_search.search_block_diagonal_gamma`; the solvers here
are the other searches:

* :func:`~repro.optimizers.graph_coloring.randomized_greedy_coloring` — the
  GVCP solver of Sec. III-A / Sec. IV.
* :func:`~repro.optimizers.gtsp.solve_gtsp` — the GTSP of Sec. III-B / Sec. IV,
  by seeded local search (the paper uses a genetic algorithm).
* :func:`~repro.optimizers.particle_swarm.binary_particle_swarm` — the
  baseline's PSO search (reproduced for the GT column and ablations).
* :mod:`~repro.optimizers.tsp` — nearest-neighbor/2-opt heuristics used by the
  baseline orderings.
"""

from repro.optimizers.graph_coloring import (
    ColoringResult,
    greedy_coloring,
    is_proper_coloring,
    randomized_greedy_coloring,
)
from repro.optimizers.gtsp import GtspProblem, GtspResult, brute_force_gtsp, solve_gtsp
from repro.optimizers.particle_swarm import PsoResult, binary_particle_swarm
from repro.optimizers.tsp import nearest_neighbor_tour, solve_tsp, tour_length, two_opt

__all__ = [
    "ColoringResult",
    "greedy_coloring",
    "randomized_greedy_coloring",
    "is_proper_coloring",
    "GtspProblem",
    "GtspResult",
    "solve_gtsp",
    "brute_force_gtsp",
    "PsoResult",
    "binary_particle_swarm",
    "nearest_neighbor_tour",
    "two_opt",
    "solve_tsp",
    "tour_length",
]
