"""End-to-end compile benchmark: wall time per stage, per backend, per flow.

Where ``bench_pauli_ops.py`` micro-benchmarks the operator core and
``bench_routing.py`` measures gate counts, this harness measures **compile
latency** — the quantity the matrix-form GTSP kernels and the cached
Gaussian-integral engine optimize — and pins it in CI:

* ``gtsp_sort`` — the advanced sort stage's GTSP genetic algorithm on the
  real LiH/n_terms=12 sorting problem: the seed's scalar-``weight`` dynamic
  program (a faithful copy embedded below) vs the dense-matrix kernels now in
  :mod:`repro.optimizers.gtsp`.  The tours must be bit-identical per seed;
  the enforced floor is a >= 5x speedup.
* ``end_to_end`` — ``compile_molecule_ansatz("LiH", n_terms=12)`` cold, with
  the seed behavior reconstructed (integral caching disabled via
  :func:`repro.chemistry.set_integral_caching`, the legacy GTSP solver
  patched in) vs the optimized path.  The Table-I counts must match exactly;
  the enforced floor is a >= 3x speedup.
* ``stage_times`` — per-stage wall times of the advanced Fig. 2 pipeline;
* ``backends`` — per-backend compile wall times for H2 and LiH across
  ansatz sizes;
* ``sabre_routing`` — SABRE routing time of the advanced fermionic circuit
  on line and grid topologies.

Results are written to ``BENCH_compile.json`` (uploaded as a CI artifact) so
the compile-latency trajectory stays visible across PRs.

Usage:
    PYTHONPATH=src python benchmarks/bench_compile.py [--output BENCH_compile.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.advanced_sorting as advanced_sorting
from repro import compile_molecule_ansatz
from repro.api import CompileRequest, CompilerConfig, DEFAULT_BACKEND_NAMES, get_backend
from repro.chemistry import (
    build_molecular_hamiltonian,
    clear_integral_caches,
    clear_scf_cache,
    make_molecule,
    run_rhf,
    set_integral_caching,
)
from repro.core.advanced_sorting import build_sorting_problem
from repro.core.pipeline import DEFAULT_STAGES, AdvancedPipeline
from repro.hardware import route_circuit, topology_for
from repro.optimizers import GtspResult, solve_gtsp
from repro.vqe import select_ansatz_terms

#: Enforced speedup floors (optimized vs seed implementation).
SORT_SPEEDUP_FLOOR = 5.0
END_TO_END_SPEEDUP_FLOOR = 3.0


# ----------------------------------------------------------------------
# The seed GTSP solver: a faithful copy of the scalar-weight implementation
# (per-edge Python ``weight`` calls, np.argmin over Python lists), kept as
# the "before" half of the comparison exactly like bench_pauli_ops.py keeps
# the label-tuple Pauli engine.
# ----------------------------------------------------------------------
class LegacyGtspProblem:
    """Seed-era GTSP instance: clusters plus a scalar weight callable."""

    def __init__(self, clusters, weight):
        self.clusters = clusters
        self.weight = weight

    @property
    def n_clusters(self):
        return len(self.clusters)

    def tour_cost(self, tour):
        if len(tour) <= 1:
            return 0.0
        cost = 0.0
        for (_, u), (_, v) in zip(tour, list(tour[1:]) + [tour[0]]):
            cost += float(self.weight(u, v))
        return cost


class _LegacyChromosome:
    __slots__ = ("order", "choices")

    def __init__(self, order, choices):
        self.order = order
        self.choices = choices

    def tour(self, problem):
        return tuple(
            (cluster, problem.clusters[cluster][self.choices[cluster]])
            for cluster in self.order
        )


def _legacy_random_chromosome(problem, rng):
    order = list(rng.permutation(problem.n_clusters))
    choices = [int(rng.integers(len(cluster))) for cluster in problem.clusters]
    return _LegacyChromosome([int(c) for c in order], choices)


def _legacy_crossover(parent_a, parent_b, rng):
    n = len(parent_a.order)
    if n == 1:
        return _LegacyChromosome(list(parent_a.order), list(parent_a.choices))
    cut_a, cut_b = sorted(rng.choice(n, size=2, replace=False))
    segment = parent_a.order[cut_a:cut_b + 1]
    remainder = [c for c in parent_b.order if c not in segment]
    order = remainder[:cut_a] + segment + remainder[cut_a:]
    choices = [
        parent_a.choices[c] if rng.random() < 0.5 else parent_b.choices[c]
        for c in range(len(parent_a.choices))
    ]
    return _LegacyChromosome(order, choices)


def _legacy_mutate(chromosome, problem, rng, mutation_rate):
    n = problem.n_clusters
    if n >= 2 and rng.random() < mutation_rate:
        i, j = rng.choice(n, size=2, replace=False)
        chromosome.order[i], chromosome.order[j] = chromosome.order[j], chromosome.order[i]
    if rng.random() < mutation_rate:
        cluster = int(rng.integers(n))
        chromosome.choices[cluster] = int(rng.integers(len(problem.clusters[cluster])))
    if n >= 3 and rng.random() < mutation_rate:
        i, j = sorted(rng.choice(n, size=2, replace=False))
        chromosome.order[i:j + 1] = reversed(chromosome.order[i:j + 1])


def _legacy_cluster_optimization(chromosome, problem):
    order = chromosome.order
    m = len(order)
    if m == 1:
        return
    clusters = [list(problem.clusters[c]) for c in order]
    weight = problem.weight

    best_total = None
    best_assignment = None
    for start_index, start_vertex in enumerate(clusters[0]):
        costs = [float(weight(start_vertex, v)) for v in clusters[1]]
        parents = [[0] * len(clusters[1])]
        for layer in range(2, m):
            new_costs = []
            new_parents = []
            for v in clusters[layer]:
                candidate_costs = [
                    costs[k] + float(weight(u, v)) for k, u in enumerate(clusters[layer - 1])
                ]
                best_k = int(np.argmin(candidate_costs))
                new_costs.append(candidate_costs[best_k])
                new_parents.append(best_k)
            costs = new_costs
            parents.append(new_parents)
        closing = [costs[k] + float(weight(u, start_vertex)) for k, u in enumerate(clusters[-1])]
        best_k = int(np.argmin(closing))
        total = closing[best_k]
        if best_total is None or total < best_total:
            best_total = total
            assignment = [0] * m
            assignment[0] = start_index
            k = best_k
            for layer in range(m - 1, 0, -1):
                assignment[layer] = k
                k = parents[layer - 1][k]
            best_assignment = assignment

    if best_assignment is not None:
        for layer, cluster in enumerate(order):
            chromosome.choices[cluster] = best_assignment[layer]


def _legacy_chromosome_from_tour(problem, tour):
    order = []
    choices = [0] * problem.n_clusters
    for cluster, vertex in tour:
        vertices = list(problem.clusters[cluster])
        order.append(int(cluster))
        choices[cluster] = vertices.index(vertex)
    return _LegacyChromosome(order, choices)


def legacy_solve_gtsp(
    problem,
    population_size: int = 40,
    generations: int = 60,
    mutation_rate: float = 0.3,
    elite_fraction: float = 0.2,
    cluster_optimization_rate: float = 0.25,
    rng: Optional[np.random.Generator] = None,
    initial_tours=None,
) -> GtspResult:
    """The seed ``solve_gtsp``: full per-candidate re-evaluation, scalar DP."""
    rng = rng or np.random.default_rng()

    def cost_of(chromosome):
        return problem.tour_cost(chromosome.tour(problem))

    population = [_legacy_random_chromosome(problem, rng) for _ in range(population_size)]
    if initial_tours:
        seeds = [_legacy_chromosome_from_tour(problem, tour) for tour in initial_tours]
        population[: len(seeds)] = seeds[:population_size]
    for chromosome in population:
        _legacy_cluster_optimization(chromosome, problem)
    costs = [cost_of(c) for c in population]

    n_elite = max(1, int(elite_fraction * population_size))
    best_index = int(np.argmin(costs))
    best_chromosome, best_cost = population[best_index], costs[best_index]

    for _ in range(generations):
        ranked = sorted(range(population_size), key=lambda i: costs[i])
        elites = [population[i] for i in ranked[:n_elite]]
        next_population = [
            _LegacyChromosome(list(c.order), list(c.choices)) for c in elites
        ]
        while len(next_population) < population_size:
            contenders = rng.choice(population_size, size=min(4, population_size), replace=False)
            parents = sorted(contenders, key=lambda i: costs[i])[:2]
            child = _legacy_crossover(population[parents[0]], population[parents[1]], rng)
            _legacy_mutate(child, problem, rng, mutation_rate)
            if rng.random() < cluster_optimization_rate:
                _legacy_cluster_optimization(child, problem)
            next_population.append(child)
        population = next_population
        costs = [cost_of(c) for c in population]
        generation_best = int(np.argmin(costs))
        if costs[generation_best] < best_cost:
            best_chromosome = population[generation_best]
            best_cost = costs[generation_best]

    best_chromosome = _LegacyChromosome(list(best_chromosome.order), list(best_chromosome.choices))
    _legacy_cluster_optimization(best_chromosome, problem)
    final_cost = cost_of(best_chromosome)
    if final_cost < best_cost:
        best_cost = final_cost
    return GtspResult(
        tour=best_chromosome.tour(problem), cost=best_cost, generations=generations
    )


def legacy_problem_from(problem) -> LegacyGtspProblem:
    """Seed-shaped view of a matrix-form problem: one flat dict, scalar lookups."""
    row_of = {}
    row = 0
    for cluster in problem.clusters:
        for vertex in cluster:
            row_of[vertex] = row
            row += 1
    matrix = problem.matrix

    def weight(u, v):
        return float(matrix[row_of[u], row_of[v]])

    return LegacyGtspProblem(list(problem.clusters), weight)


def legacy_solve_adapter(problem, max_generations=None, **kwargs) -> GtspResult:
    """Drop-in ``solve_gtsp`` replacement running the seed implementation.

    The seed solver predates the ``max_generations`` budget, so only the
    unbudgeted call (``None``, what the default config passes) is accepted.
    """
    if max_generations is not None:
        raise ValueError("the seed solver has no max_generations budget")
    return legacy_solve_gtsp(legacy_problem_from(problem), **kwargs)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def best_of(repeats: int, function) -> float:
    """Best wall time of ``repeats`` runs (minimizes scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def table_terms(molecule_name: str, n_terms: int):
    """The HMP2-selected term list compile_molecule_ansatz would use."""
    molecule = make_molecule(molecule_name)
    frozen = 1 if molecule_name != "H2" else 0
    scf = run_rhf(molecule)
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=frozen)
    terms = select_ansatz_terms(hamiltonian, n_terms)
    return terms, hamiltonian.n_spin_orbitals


def sorting_rotations(terms, n_qubits):
    """The targeted Pauli rotations the advanced sort stage receives."""
    pipeline = AdvancedPipeline()
    context = pipeline.make_context(terms, n_qubits=n_qubits)
    for name, stage in DEFAULT_STAGES:
        if name == "sort":
            break
        stage(context)
    return context.rotations


def bench_gtsp_sort(repeats: int) -> Dict[str, object]:
    """Seed scalar GA vs matrix-form GA on the real LiH/12 sorting problem."""
    terms, n_qubits = table_terms("LiH", 12)
    rotations = sorting_rotations(terms, n_qubits)
    problem = build_sorting_problem(rotations)
    config = CompilerConfig()
    solver_kwargs = dict(
        population_size=config.sorting_population,
        generations=config.sorting_generations,
    )
    legacy_view = legacy_problem_from(problem)

    legacy = legacy_solve_gtsp(
        legacy_view, rng=np.random.default_rng(0), **solver_kwargs
    )
    matrix = solve_gtsp(problem, rng=np.random.default_rng(0), **solver_kwargs)
    identical = legacy.tour == matrix.tour and legacy.cost == matrix.cost
    assert identical, "matrix-form GTSP diverged from the seed solver"

    legacy_s = best_of(
        repeats,
        lambda: legacy_solve_gtsp(
            legacy_view, rng=np.random.default_rng(0), **solver_kwargs
        ),
    )
    matrix_s = best_of(
        repeats,
        lambda: solve_gtsp(problem, rng=np.random.default_rng(0), **solver_kwargs),
    )
    return {
        "n_clusters": problem.n_clusters,
        "n_vertices": problem.n_vertices,
        "legacy_s": legacy_s,
        "matrix_s": matrix_s,
        "speedup": legacy_s / matrix_s,
        "identical_tours": identical,
        "cost": matrix.cost,
    }


def _cold_compile():
    clear_scf_cache()
    clear_integral_caches()
    return compile_molecule_ansatz("LiH", n_terms=12)


def bench_end_to_end(repeats: int) -> Dict[str, object]:
    """Cold LiH/12 compile: reconstructed seed behavior vs the optimized path."""
    set_integral_caching(False)
    original_solver = advanced_sorting.solve_gtsp
    advanced_sorting.solve_gtsp = legacy_solve_adapter
    try:
        legacy_report = _cold_compile()
        legacy_s = best_of(repeats, _cold_compile)
    finally:
        advanced_sorting.solve_gtsp = original_solver
        set_integral_caching(True)

    optimized_report = _cold_compile()
    optimized_s = best_of(repeats, _cold_compile)

    identical = (
        legacy_report.jordan_wigner_cnot_count == optimized_report.jordan_wigner_cnot_count
        and legacy_report.bravyi_kitaev_cnot_count == optimized_report.bravyi_kitaev_cnot_count
        and legacy_report.baseline_cnot_count == optimized_report.baseline_cnot_count
        and legacy_report.advanced_cnot_count == optimized_report.advanced_cnot_count
    )
    assert identical, "optimized compile changed the Table-I counts"
    return {
        "molecule": "LiH",
        "n_terms": 12,
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s,
        "identical_counts": identical,
        "cnot_counts": {
            "jordan-wigner": optimized_report.jordan_wigner_cnot_count,
            "bravyi-kitaev": optimized_report.bravyi_kitaev_cnot_count,
            "baseline": optimized_report.baseline_cnot_count,
            "advanced": optimized_report.advanced_cnot_count,
        },
    }


def bench_stage_times(terms, n_qubits) -> Dict[str, float]:
    """Wall time of every advanced-pipeline stage (optimized path)."""
    times: Dict[str, float] = {}

    def timed(name, stage):
        def run(context):
            start = time.perf_counter()
            stage(context)
            times[name] = time.perf_counter() - start
        return run

    stages = [(name, timed(name, stage)) for name, stage in DEFAULT_STAGES]
    AdvancedPipeline(stages=stages).run(terms, n_qubits=n_qubits)
    return times


def bench_backends(cases: Sequence[Tuple[str, int]]) -> Dict[str, Dict[str, object]]:
    """Per-backend wall times across molecules and ansatz sizes."""
    out: Dict[str, Dict[str, object]] = {}
    for molecule_name, n_terms in cases:
        terms, n_qubits = table_terms(molecule_name, n_terms)
        request = CompileRequest(
            terms=tuple(terms), n_qubits=n_qubits, config=CompilerConfig(seed=0)
        )
        row: Dict[str, object] = {"n_qubits": n_qubits}
        for backend_name in DEFAULT_BACKEND_NAMES:
            result = get_backend(backend_name).compile(request)
            row[backend_name] = {
                "wall_time_s": result.wall_time_s,
                "cnot_count": result.cnot_count,
            }
        out[f"{molecule_name}/{n_terms}"] = row
    return out


def bench_sabre_routing(repeats: int) -> Dict[str, object]:
    """SABRE routing time of the advanced fermionic circuit on line/grid."""
    terms, n_qubits = table_terms("LiH", 8)
    request = CompileRequest(
        terms=tuple(terms), n_qubits=n_qubits, config=CompilerConfig(seed=0)
    )
    circuit = get_backend("advanced").compile(request).details.fermionic_circuit()
    out: Dict[str, object] = {"n_qubits": circuit.n_qubits, "n_gates": len(circuit.gates)}
    for kind in ("line", "grid"):
        topology = topology_for(kind, circuit.n_qubits)
        routed = route_circuit(circuit, topology, seed=0)
        out[kind] = {
            "topology": topology.name,
            "route_s": best_of(repeats, lambda: route_circuit(circuit, topology, seed=0)),
            "n_swaps": routed.n_swaps,
            "routed_cnot_count": routed.routed_cnot_count,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_compile.json",
    )
    args = parser.parse_args()

    gtsp = bench_gtsp_sort(args.repeats)
    end_to_end = bench_end_to_end(args.repeats)
    terms, n_qubits = table_terms("LiH", 12)
    results = {
        "config": {
            "repeats": args.repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "floors": {
                "gtsp_sort_speedup": SORT_SPEEDUP_FLOOR,
                "end_to_end_speedup": END_TO_END_SPEEDUP_FLOOR,
            },
        },
        "gtsp_sort": gtsp,
        "end_to_end": end_to_end,
        "stage_times": bench_stage_times(terms, n_qubits),
        "backends": bench_backends([("H2", 3), ("LiH", 4), ("LiH", 8), ("LiH", 12)]),
        "sabre_routing": bench_sabre_routing(args.repeats),
    }

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(
        f"\ngtsp sort stage: {gtsp['speedup']:.1f}x (floor {SORT_SPEEDUP_FLOOR:.0f}x); "
        f"end-to-end LiH/12: {end_to_end['speedup']:.1f}x "
        f"(floor {END_TO_END_SPEEDUP_FLOOR:.0f}x)"
    )
    ok = (
        gtsp["speedup"] >= SORT_SPEEDUP_FLOOR
        and end_to_end["speedup"] >= END_TO_END_SPEEDUP_FLOOR
    )
    print(f"speedup floors: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
