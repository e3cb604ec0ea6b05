"""Differential tests: matrix-form GTSP kernels vs scalar reference loops.

The dense-matrix, population-batched :mod:`repro.optimizers.gtsp` claims
*bit-identical* behavior: same tour costs, same DP vertex assignments, same
solver output and rng stream per seed.  This suite checks the claim against
faithful copies of the earlier implementations — the scalar DP (one weight
lookup per edge, ``np.argmin`` over Python lists), the per-child solver loop
and the scalar-draw crossover — on hypothesis-generated random problems and
on a real advanced-sorting instance.  The references read each weight as a
scalar from ``problem.matrix``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizers import GtspProblem, GtspResult, solve_gtsp
from repro.optimizers.gtsp import (
    _Chromosome,
    _chromosome_from_tour,
    _mutate,
    _optimize_clusters,
    _ordered_crossover,
    _random_chromosome,
)


# ----------------------------------------------------------------------
# Reference implementations (scalar weight lookups, list-based DP,
# per-child solver loop, scalar-draw crossover)
# ----------------------------------------------------------------------
def scalar_weight(problem):
    """``weight(u, v)``: one ``problem.matrix`` entry per vertex pair."""
    row_of = {}
    for cluster in problem.clusters:
        for vertex in cluster:
            row_of[vertex] = len(row_of)
    matrix = problem.matrix
    return lambda u, v: float(matrix[row_of[u], row_of[v]])


def legacy_tour_cost(problem, tour):
    if len(tour) <= 1:
        return 0.0
    weight = scalar_weight(problem)
    cost = 0.0
    for (_, u), (_, v) in zip(tour, list(tour[1:]) + [tour[0]]):
        cost += float(weight(u, v))
    return cost


def legacy_cluster_optimization(order, choices, problem):
    """The seed DP; mutates ``choices`` in place exactly like the original."""
    m = len(order)
    if m == 1:
        return
    clusters = [list(problem.clusters[c]) for c in order]
    weight = scalar_weight(problem)

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
                    costs[k] + float(weight(u, v))
                    for k, u in enumerate(clusters[layer - 1])
                ]
                best_k = int(np.argmin(candidate_costs))
                new_costs.append(candidate_costs[best_k])
                new_parents.append(best_k)
            costs = new_costs
            parents.append(new_parents)
        closing = [
            costs[k] + float(weight(u, start_vertex))
            for k, u in enumerate(clusters[-1])
        ]
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
            choices[cluster] = best_assignment[layer]


def reference_crossover(parent_a, parent_b, rng):
    """Ordered crossover with a list-scan remainder and one scalar coin per cluster."""
    n = len(parent_a.order)
    if n == 1:
        return _Chromosome(list(parent_a.order), list(parent_a.choices))
    cut_a, cut_b = sorted(rng.choice(n, size=2, replace=False))
    segment = parent_a.order[cut_a:cut_b + 1]
    remainder = [c for c in parent_b.order if c not in segment]
    order = remainder[:cut_a] + segment + remainder[cut_a:]
    choices = [
        parent_a.choices[c] if rng.random() < 0.5 else parent_b.choices[c]
        for c in range(len(parent_a.choices))
    ]
    return _Chromosome(order, choices)


def reference_solve_gtsp(
    problem,
    population_size=40,
    generations=60,
    mutation_rate=0.3,
    elite_fraction=0.2,
    cluster_optimization_rate=0.25,
    rng=None,
    initial_tours=None,
    max_generations=None,
):
    """The per-child solver: each child is optimized as soon as it is bred.

    Optimization, costs and crossover are the scalar references above; the
    random chromosome, mutation and seed-tour helpers are the solver's own.
    """

    def optimize(chromosome):
        legacy_cluster_optimization(chromosome.order, chromosome.choices, problem)

    def cost(chromosome):
        return legacy_tour_cost(problem, chromosome.tour(problem))

    degraded = max_generations is not None and max_generations < generations
    n_generations = (
        min(max_generations, generations) if max_generations is not None else generations
    )
    population = [_random_chromosome(problem, rng) for _ in range(population_size)]
    if initial_tours:
        seeds = [_chromosome_from_tour(problem, tour) for tour in initial_tours]
        population[: len(seeds)] = seeds[:population_size]
    for chromosome in population:
        optimize(chromosome)
    costs = [cost(chromosome) for chromosome in population]

    n_elite = max(1, int(elite_fraction * population_size))
    best_index = min(range(population_size), key=costs.__getitem__)
    best_chromosome, best_cost = population[best_index], costs[best_index]
    for _ in range(n_generations):
        ranked = sorted(range(population_size), key=costs.__getitem__)
        next_population = [
            _Chromosome(list(population[i].order), list(population[i].choices))
            for i in ranked[:n_elite]
        ]
        next_costs = [costs[i] for i in ranked[:n_elite]]
        while len(next_population) < population_size:
            contenders = rng.choice(
                population_size, size=min(4, population_size), replace=False
            )
            parents = sorted(contenders, key=lambda i: costs[i])[:2]
            child = reference_crossover(population[parents[0]], population[parents[1]], rng)
            _mutate(child, problem, rng, mutation_rate)
            if rng.random() < cluster_optimization_rate:
                optimize(child)
            next_population.append(child)
            next_costs.append(cost(child))
        population, costs = next_population, next_costs
        generation_best = min(range(population_size), key=costs.__getitem__)
        if costs[generation_best] < best_cost:
            best_chromosome = population[generation_best]
            best_cost = costs[generation_best]

    best_chromosome = _Chromosome(list(best_chromosome.order), list(best_chromosome.choices))
    optimize(best_chromosome)
    final_cost = cost(best_chromosome)
    if final_cost < best_cost:
        best_cost = final_cost
    return GtspResult(
        tour=best_chromosome.tour(problem),
        cost=best_cost,
        generations=n_generations,
        degraded=degraded,
    )


# ----------------------------------------------------------------------
# Random problem generation
# ----------------------------------------------------------------------
def random_problem(seed, n_clusters, max_cluster_size, integer_weights=False):
    """A random instance with float or (tie-heavy) integer weights."""
    rng = np.random.default_rng(seed)
    clusters = [
        [(c, i) for i in range(int(rng.integers(1, max_cluster_size + 1)))]
        for c in range(n_clusters)
    ]
    n_vertices = sum(len(cluster) for cluster in clusters)
    if integer_weights:
        matrix = rng.integers(-6, 7, size=(n_vertices, n_vertices)).astype(float)
    else:
        matrix = rng.uniform(-5.0, 5.0, size=(n_vertices, n_vertices))
    return GtspProblem(clusters=clusters, weight_matrix=matrix)


problem_shapes = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # rng seed for the instance
    st.integers(min_value=1, max_value=5),        # clusters
    st.integers(min_value=1, max_value=4),        # max cluster size
    st.booleans(),                                # integer weights (tie-heavy)
)


class TestTourCost:
    @settings(max_examples=60, deadline=None)
    @given(problem_shapes, st.integers(min_value=0, max_value=10_000))
    def test_matrix_tour_cost_equals_scalar_exactly(self, shape, tour_seed):
        seed, n_clusters, max_size, integer_weights = shape
        problem = random_problem(seed, n_clusters, max_size, integer_weights)
        rng = np.random.default_rng(tour_seed)
        order = [int(c) for c in rng.permutation(n_clusters)]
        tour = [
            (c, problem.clusters[c][int(rng.integers(len(problem.clusters[c])))])
            for c in order
        ]
        assert problem.tour_cost(tour) == legacy_tour_cost(problem, tour)

    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(ValueError):
            GtspProblem(clusters=[["a"], ["b"]], weight_matrix=np.zeros((3, 3)))

    def test_problem_without_matrix_rejected(self):
        with pytest.raises(TypeError):
            GtspProblem(clusters=[["a"], ["b"]])

    def test_foreign_vertex_raises(self):
        problem = random_problem(11, 2, 2)
        # A vertex of cluster 0 placed in cluster 1 belongs to no row there.
        foreign_tour = [(0, problem.clusters[0][0]), (1, problem.clusters[0][0])]
        with pytest.raises(ValueError, match="not in cluster 1"):
            problem.tour_cost(foreign_tour)
        with pytest.raises(ValueError, match="not in cluster 1"):
            problem.tour_rows(foreign_tour)


class TestClusterOptimization:
    @settings(max_examples=60, deadline=None)
    @given(problem_shapes, st.integers(min_value=0, max_value=10_000))
    def test_vectorized_dp_matches_scalar_dp_exactly(self, shape, chromosome_seed):
        seed, n_clusters, max_size, integer_weights = shape
        problem = random_problem(seed, n_clusters, max_size, integer_weights)
        rng = np.random.default_rng(chromosome_seed)
        order = [int(c) for c in rng.permutation(n_clusters)]
        choices = [
            int(rng.integers(len(cluster))) for cluster in problem.clusters
        ]

        legacy_choices = list(choices)
        legacy_cluster_optimization(order, legacy_choices, problem)

        chromosome = _Chromosome(list(order), list(choices))
        _optimize_clusters([chromosome], problem)
        assert chromosome.choices == legacy_choices
        assert chromosome.order == order

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),   # instance seed
        st.integers(min_value=1, max_value=7),        # clusters
        st.integers(min_value=1, max_value=6),        # max cluster size
        st.sampled_from(["float", "integer", "equal"]),
        st.integers(min_value=1, max_value=8),        # batch size
        st.integers(min_value=0, max_value=10_000),   # chromosome seed
    )
    def test_batched_dp_matches_scalar_dp_per_chromosome(
        self, seed, n_clusters, max_size, weights, batch_size, chromosome_seed
    ):
        problem = random_problem(seed, n_clusters, max_size, weights == "integer")
        if weights == "equal":
            n = problem.n_vertices
            problem = GtspProblem(clusters=problem.clusters, weight_matrix=np.full((n, n), 2.0))
        rng = np.random.default_rng(chromosome_seed)
        batch = [_random_chromosome(problem, rng) for _ in range(batch_size)]
        expected = []
        for chromosome in batch:
            choices = list(chromosome.choices)
            legacy_cluster_optimization(chromosome.order, choices, problem)
            expected.append(choices)

        copies = [_Chromosome(list(c.order), list(c.choices)) for c in batch]
        _optimize_clusters(copies, problem)
        assert [c.choices for c in copies] == expected
        assert [c.order for c in copies] == [c.order for c in batch]

    @pytest.mark.parametrize("n_clusters", [1, 2])
    def test_batched_dp_on_one_and_two_clusters(self, n_clusters):
        clusters = [[(c, i) for i in range(2 + 2 * c)] for c in range(n_clusters)]
        n = sum(len(cluster) for cluster in clusters)
        matrix = np.random.default_rng(n_clusters).integers(-3, 4, size=(n, n)).astype(float)
        problem = GtspProblem(clusters=clusters, weight_matrix=matrix)
        orders = [list(range(n_clusters)), list(reversed(range(n_clusters)))]
        batch = [_Chromosome(order, [0] * n_clusters) for order in orders]
        expected = []
        for chromosome in batch:
            choices = list(chromosome.choices)
            legacy_cluster_optimization(chromosome.order, choices, problem)
            expected.append(choices)
        _optimize_clusters(batch, problem)
        assert [c.choices for c in batch] == expected

    def test_empty_batch_is_a_no_op(self):
        _optimize_clusters([], random_problem(5, 3, 3))


class TestCrossover:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_crossover_matches_reference_and_rng_state(self, n_clusters, seed):
        setup = np.random.default_rng(seed)
        parents = [
            _Chromosome(
                [int(c) for c in setup.permutation(n_clusters)],
                [int(v) for v in setup.integers(5, size=n_clusters)],
            )
            for _ in range(2)
        ]
        rng = np.random.default_rng(seed + 1)
        reference_rng = np.random.default_rng(seed + 1)
        child = _ordered_crossover(parents[0], parents[1], rng)
        expected = reference_crossover(parents[0], parents[1], reference_rng)
        assert child.order == expected.order
        assert child.choices == expected.choices
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_weight_matrix_rejected_at_ingest(self, bad):
        matrix = np.zeros((3, 3))
        matrix[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            GtspProblem(clusters=[["a", "b"], ["c"]], weight_matrix=matrix)

    def test_matrix_is_a_view_of_the_padded_buffer(self):
        dense = random_problem(9, 3, 3)
        n = dense.n_vertices
        assert dense.matrix.base is dense._weights
        assert np.isposinf(dense._weights[n]).all()
        assert np.isposinf(dense._weights[:, n]).all()


class TestSolverSeedIdentity:
    @settings(max_examples=25, deadline=None)
    @given(problem_shapes, st.integers(min_value=0, max_value=10_000))
    def test_reported_cost_is_the_scalar_tour_cost(self, shape, solver_seed):
        seed, n_clusters, max_size, integer_weights = shape
        problem = random_problem(seed, n_clusters, max_size, integer_weights)
        result = solve_gtsp(
            problem, population_size=8, generations=5, rng=np.random.default_rng(solver_seed)
        )
        again = solve_gtsp(
            problem, population_size=8, generations=5, rng=np.random.default_rng(solver_seed)
        )
        assert (result.tour, result.cost) == (again.tour, again.cost)
        # The reported cost is exactly the legacy accumulation over the tour.
        assert result.cost == legacy_tour_cost(problem, result.tour)

    @settings(max_examples=40, deadline=None)
    @given(
        problem_shapes,
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),                                # seed tours
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    )
    def test_batched_solver_matches_per_child_oracle(
        self, shape, solver_seed, seeded, max_generations
    ):
        seed, n_clusters, max_size, integer_weights = shape
        dense = random_problem(seed, n_clusters, max_size, integer_weights)
        initial_tours = None
        if seeded:
            tour_rng = np.random.default_rng(seed)
            initial_tours = [
                [
                    (c, dense.clusters[c][int(tour_rng.integers(len(dense.clusters[c])))])
                    for c in tour_rng.permutation(n_clusters)
                ]
                for _ in range(2)
            ]
        kwargs = dict(
            population_size=7,
            generations=5,
            initial_tours=initial_tours,
            max_generations=max_generations,
        )
        reference_rng = np.random.default_rng(solver_seed)
        expected = reference_solve_gtsp(dense, rng=reference_rng, **kwargs)
        rng = np.random.default_rng(solver_seed)
        result = solve_gtsp(dense, rng=rng, **kwargs)
        assert result.tour == expected.tour
        assert result.cost == expected.cost
        assert result.generations == expected.generations
        assert result.degraded == expected.degraded
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_all_equal_weights_tie_breaking(self):
        clusters = [[(c, i) for i in range(3)] for c in range(4)]
        n = sum(len(c) for c in clusters)
        problem = GtspProblem(clusters=clusters, weight_matrix=np.ones((n, n)))
        for seed in range(3):
            kwargs = dict(population_size=6, generations=4)
            a = solve_gtsp(problem, rng=np.random.default_rng(seed), **kwargs)
            reference_rng = np.random.default_rng(seed)
            b = reference_solve_gtsp(problem, rng=reference_rng, **kwargs)
            assert a.tour == b.tour
            assert a.cost == b.cost == 4.0


class TestRealSortingProblem:
    def test_advanced_sorting_problem_solves_bit_identically(self):
        """Regression: the real Sec. III-B instance, new solver vs seed DP path.

        Builds the H2 sorting problem the advanced backend compiles, then
        cross-checks the matrix solver against the per-child scalar oracle
        on the same instance for several seeds (the per-seed bit-identity
        the golden Table-I counts rely on).
        """
        from repro.core.advanced_sorting import build_sorting_problem
        from repro.core.pipeline import DEFAULT_STAGES, AdvancedPipeline
        from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
        from repro.vqe import select_ansatz_terms

        scf = run_rhf(make_molecule("H2"))
        hamiltonian = build_molecular_hamiltonian(scf)
        terms = select_ansatz_terms(hamiltonian, 3)
        pipeline = AdvancedPipeline()
        context = pipeline.make_context(terms, n_qubits=hamiltonian.n_spin_orbitals)
        for name, stage in DEFAULT_STAGES:
            if name == "sort":
                break
            stage(context)
        problem = build_sorting_problem(context.rotations)

        for seed in range(3):
            dense = solve_gtsp(
                problem, population_size=8, generations=6,
                rng=np.random.default_rng(seed),
            )
            scalar = reference_solve_gtsp(
                problem, population_size=8, generations=6,
                rng=np.random.default_rng(seed),
            )
            assert dense.tour == scalar.tour
            assert dense.cost == scalar.cost
            assert dense.cost == legacy_tour_cost(problem, dense.tour)
