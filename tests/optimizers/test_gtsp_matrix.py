"""Matrix-form GTSP kernels against scalar references and exhaustive oracles.

:mod:`repro.optimizers.gtsp` keeps its weights in one padded dense buffer
and runs its cluster optimization as a padded dynamic program (DP).  This
suite checks the path cost against a scalar loop over ``problem.matrix``,
the DP against :func:`repro.optimizers.brute_force_gtsp`'s exhaustive vertex
choice for a fixed cluster order, and the solver on a real advanced-sorting
instance, where its path cost must equal the compiled CNOT count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizers import GtspProblem, brute_force_gtsp
from repro.optimizers.gtsp import _optimize_vertices


def scalar_path_cost(problem, tour):
    """Start weight of the first vertex plus one matrix entry per edge, in order."""
    row_of = {}
    for cluster in problem.clusters:
        for vertex in cluster:
            row_of[vertex] = len(row_of)
    rows = [row_of[vertex] for _, vertex in tour]
    cost = float(problem.start_weights[rows[0]]) if problem.start_weights is not None else 0.0
    for u, v in zip(rows, rows[1:]):
        cost += float(problem.matrix[u, v])
    return cost


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
        start = rng.integers(0, 4, size=n_vertices).astype(float)
    else:
        matrix = rng.uniform(-5.0, 5.0, size=(n_vertices, n_vertices))
        start = rng.uniform(0.0, 2.0, size=n_vertices)
    return GtspProblem(clusters=clusters, weight_matrix=matrix, start_weights=start)


problem_shapes = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # rng seed for the instance
    st.integers(min_value=1, max_value=5),        # clusters
    st.integers(min_value=1, max_value=4),        # max cluster size
    st.booleans(),                                # integer weights (tie-heavy)
)


class TestTourCost:
    @settings(max_examples=60, deadline=None)
    @given(problem_shapes, st.integers(min_value=0, max_value=10_000))
    def test_matrix_path_cost_equals_scalar_exactly(self, shape, tour_seed):
        seed, n_clusters, max_size, integer_weights = shape
        problem = random_problem(seed, n_clusters, max_size, integer_weights)
        rng = np.random.default_rng(tour_seed)
        order = [int(c) for c in rng.permutation(n_clusters)]
        tour = [
            (c, problem.clusters[c][int(rng.integers(len(problem.clusters[c])))])
            for c in order
        ]
        assert problem.tour_cost(tour) == scalar_path_cost(problem, tour)

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
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),   # instance seed
        st.integers(min_value=1, max_value=6),        # clusters
        st.integers(min_value=1, max_value=4),        # max cluster size
        st.sampled_from(["float", "integer", "equal"]),
        st.integers(min_value=0, max_value=10_000),   # order seed
    )
    def test_path_dp_matches_exhaustive_vertex_choice(
        self, seed, n_clusters, max_size, weights, order_seed
    ):
        problem = random_problem(seed, n_clusters, max_size, weights == "integer")
        if weights == "equal":
            n = problem.n_vertices
            problem = GtspProblem(clusters=problem.clusters, weight_matrix=np.full((n, n), 2.0))
        order = [int(c) for c in np.random.default_rng(order_seed).permutation(n_clusters)]
        seed_tour = [(c, problem.clusters[c][-1]) for c in order]
        rows = _optimize_vertices(problem, np.array(problem.tour_rows(seed_tour)))
        tour = [problem._vertex_of_row[row] for row in rows.tolist()]
        exact = brute_force_gtsp(problem, order=order)
        assert [c for c, _ in tour] == order
        assert problem.tour_cost(tour) == pytest.approx(exact.cost, abs=1e-9)
        if weights != "float":
            assert problem.tour_cost(tour) == exact.cost


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


class TestRealSortingProblem:
    @pytest.mark.parametrize("topology", [None, "line"])
    def test_solver_cost_is_the_compiled_objective(self, topology):
        """On the H2O sorting instance the path cost is the sequence's cost.

        All-to-all it is :func:`repro.circuits.sequence_cnot_count`; on a
        line it is the routed estimate.  Either way the returned tour is a
        permutation of the rotations.
        """
        from repro.circuits import sequence_cnot_count
        from repro.core import advanced_sort, build_sorting_problem
        from repro.core.advanced_sorting import sort_seed_tours
        from repro.core.pipeline import DEFAULT_STAGES, AdvancedPipeline
        from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
        from repro.hardware import Topology
        from repro.optimizers import solve_gtsp
        from repro.vqe import select_ansatz_terms

        scf = run_rhf(make_molecule("H2O"))
        hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
        terms = select_ansatz_terms(hamiltonian, 6)
        context = AdvancedPipeline().make_context(terms, n_qubits=hamiltonian.n_spin_orbitals)
        for name, stage in DEFAULT_STAGES:
            if name == "sort":
                break
            stage(context)
        rotations = context.rotations
        device = None if topology is None else Topology.line(hamiltonian.n_spin_orbitals)

        problem = build_sorting_problem(rotations, topology=device)
        seeds = [
            [(index, (index, target)) for index, target in tour]
            for tour in sort_seed_tours(rotations, topology=device)
        ]
        solution = solve_gtsp(problem, seeds)
        result = advanced_sort(rotations, topology=device)
        assert sorted(index for index, _ in solution.tour) == list(range(len(rotations)))
        assert solution.cost == result.objective()
        assert result.cnot_count == sequence_cnot_count(result.targeted_strings())
        assert result.ordered_rotations == [
            (rotations[index], target) for _, (index, target) in solution.tour
        ]
