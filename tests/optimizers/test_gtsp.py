"""Unit tests for the GTSP genetic algorithm."""

import numpy as np
import pytest

from repro.optimizers import GtspProblem, brute_force_gtsp, solve_gtsp


def euclidean_problem(points_by_cluster):
    """Build a GTSP instance from clusters of 2D points."""
    clusters = [
        [(cluster_index, point_index) for point_index in range(len(points))]
        for cluster_index, points in enumerate(points_by_cluster)
    ]
    points = np.array([point for points in points_by_cluster for point in points], dtype=float)
    distances = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    return GtspProblem(clusters=clusters, weight_matrix=distances)


def constant_problem(clusters, value):
    n = sum(len(cluster) for cluster in clusters)
    return GtspProblem(clusters=clusters, weight_matrix=np.full((n, n), value))


class TestProblemValidation:
    def test_empty_clusters_rejected(self):
        with pytest.raises(ValueError):
            GtspProblem(clusters=[], weight_matrix=np.zeros((0, 0)))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            GtspProblem(clusters=[[1], []], weight_matrix=np.zeros((1, 1)))

    def test_tour_cost_checks_coverage(self):
        problem = constant_problem([[0], [1]], 1.0)
        with pytest.raises(ValueError):
            problem.tour_cost([(0, 0)])
        with pytest.raises(ValueError):
            problem.tour_cost([(0, 0), (0, 0)])

    def test_single_cluster_tour_costs_zero(self):
        problem = constant_problem([["a", "b"]], 5.0)
        assert problem.tour_cost([(0, "a")]) == 0.0


class TestSolver:
    def test_matches_brute_force_on_small_instance(self):
        problem = euclidean_problem(
            [
                [(0, 0), (0, 1)],
                [(5, 0), (5, 1)],
                [(10, 0), (10, 5)],
                [(2, 8), (3, 9)],
            ]
        )
        exact = brute_force_gtsp(problem)
        found = solve_gtsp(
            problem, population_size=30, generations=40, rng=np.random.default_rng(0)
        )
        assert found.cost <= exact.cost + 1e-9

    def test_tour_visits_every_cluster_once(self):
        problem = euclidean_problem([[(i, j) for j in range(3)] for i in range(6)])
        result = solve_gtsp(
            problem, population_size=20, generations=20, rng=np.random.default_rng(1)
        )
        visited = sorted(cluster for cluster, _ in result.tour)
        assert visited == list(range(6))

    def test_negative_weights_supported(self):
        # The advanced-sorting use case negates CNOT savings, so weights are <= 0.
        rng = np.random.default_rng(2)
        savings = rng.integers(0, 5, size=(6, 6))
        clusters = [[(c, v) for v in range(c, c + 2)] for c in range(0, 6, 2)]
        problem = GtspProblem(clusters=clusters, weight_matrix=-savings)
        result = solve_gtsp(problem, population_size=16, generations=20, rng=rng)
        assert result.cost <= 0.0

    def test_single_cluster_instance(self):
        problem = constant_problem([["a", "b", "c"]], 1.0)
        result = solve_gtsp(problem, population_size=4, generations=3, rng=np.random.default_rng(0))
        assert result.cost == 0.0
        assert len(result.tour) == 1

    def test_invalid_population_size(self):
        problem = constant_problem([["a"]], 1.0)
        with pytest.raises(ValueError):
            solve_gtsp(problem, population_size=1)

    def test_brute_force_size_guard(self):
        problem = constant_problem([[i] for i in range(9)], 1.0)
        with pytest.raises(ValueError):
            brute_force_gtsp(problem)

    def test_deterministic_with_seed(self):
        problem = euclidean_problem([[(i, 0), (i, 2)] for i in range(5)])
        a = solve_gtsp(problem, population_size=12, generations=15, rng=np.random.default_rng(9))
        b = solve_gtsp(problem, population_size=12, generations=15, rng=np.random.default_rng(9))
        assert a.cost == b.cost
