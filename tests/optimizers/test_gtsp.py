"""Unit tests for the seeded GTSP local search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def random_problem(seed, n_clusters, max_cluster_size, integer_weights):
    """A random instance with start weights; integer weights are tie-heavy."""
    rng = np.random.default_rng(seed)
    clusters = [
        [(c, i) for i in range(int(rng.integers(1, max_cluster_size + 1)))]
        for c in range(n_clusters)
    ]
    n = sum(len(cluster) for cluster in clusters)
    if integer_weights:
        matrix = rng.integers(-6, 7, size=(n, n)).astype(float)
        start = rng.integers(0, 5, size=n).astype(float)
    else:
        matrix = rng.uniform(-5.0, 5.0, size=(n, n))
        start = rng.uniform(0.0, 3.0, size=n)
    return GtspProblem(clusters=clusters, weight_matrix=matrix, start_weights=start)


def random_tour(problem, seed):
    rng = np.random.default_rng(seed)
    return [
        (int(c), problem.clusters[c][int(rng.integers(len(problem.clusters[c])))])
        for c in rng.permutation(problem.n_clusters)
    ]


def identity_tour(problem):
    return [(c, cluster[0]) for c, cluster in enumerate(problem.clusters)]


problem_shapes = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # rng seed for the instance
    st.integers(min_value=1, max_value=7),        # clusters
    st.integers(min_value=1, max_value=4),        # max cluster size
    st.booleans(),                                # integer weights (tie-heavy)
)


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

    def test_start_weights_shape_and_finiteness_checked(self):
        with pytest.raises(ValueError, match="start_weights"):
            GtspProblem(clusters=[["a"], ["b"]], weight_matrix=np.zeros((2, 2)),
                        start_weights=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            GtspProblem(clusters=[["a"], ["b"]], weight_matrix=np.zeros((2, 2)),
                        start_weights=np.array([0.0, np.nan]))


class TestPathCost:
    def test_path_cost_is_start_weight_plus_edges(self):
        problem = GtspProblem(
            clusters=[["a"], ["b"], ["c"]],
            weight_matrix=np.arange(9.0).reshape(3, 3),
            start_weights=np.array([10.0, 20.0, 30.0]),
        )
        # Start at c (30), then c->a (6), a->b (1); no closing edge.
        assert problem.tour_cost([(2, "c"), (0, "a"), (1, "b")]) == 37.0

    def test_single_cluster_costs_its_start_weight(self):
        problem = GtspProblem(
            clusters=[["a", "b"]], weight_matrix=np.zeros((2, 2)),
            start_weights=np.array([4.0, 3.0]),
        )
        result = solve_gtsp(problem, [[(0, "a")]])
        assert result.tour == ((0, "b"),)
        assert result.cost == 3.0


class TestSolver:
    @settings(max_examples=60, deadline=None)
    @given(problem_shapes, st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
    def test_cost_is_the_tour_cost_and_beats_every_seed(self, shape, tour_seeds):
        problem = random_problem(*shape)
        seeds = [random_tour(problem, seed) for seed in tour_seeds]
        result = solve_gtsp(problem, seeds)
        assert result.cost == problem.tour_cost(result.tour)
        assert sorted(c for c, _ in result.tour) == list(range(problem.n_clusters))
        for seed in seeds:
            assert result.cost <= problem.tour_cost(seed)

    def test_or_opt_moves_a_run_to_the_front(self):
        # Line points visited 1, 2, 3, 0: one move of cluster 0 gives the
        # optimal path 0, 1, 2, 3 of length 3.
        problem = euclidean_problem([[(x, 0)] for x in range(4)])
        result = solve_gtsp(problem, [[(c, (c, 0)) for c in (1, 2, 3, 0)]])
        assert [c for c, _ in result.tour] in ([0, 1, 2, 3], [3, 2, 1, 0])
        assert result.cost == 3.0

    def test_negative_weights_supported(self):
        # The advanced-sorting use case subtracts CNOT savings from edge weights.
        rng = np.random.default_rng(2)
        savings = rng.integers(0, 5, size=(6, 6))
        clusters = [[(c, v) for v in range(c, c + 2)] for c in range(0, 6, 2)]
        problem = GtspProblem(clusters=clusters, weight_matrix=-savings)
        result = solve_gtsp(problem, [identity_tour(problem)])
        assert result.cost <= 0.0

    def test_earliest_seed_wins_ties(self):
        problem = constant_problem([[(c, i) for i in range(2)] for c in range(4)], 1.0)
        seeds = [random_tour(problem, seed) for seed in range(3)]
        result = solve_gtsp(problem, seeds)
        assert result.tour == tuple(seeds[0])
        assert result.rounds == 0

    def test_seeds_are_required_and_checked(self):
        problem = constant_problem([["a"], ["b"]], 1.0)
        with pytest.raises(ValueError, match="seed"):
            solve_gtsp(problem, [])
        with pytest.raises(ValueError, match="every cluster"):
            solve_gtsp(problem, [[(0, "a")]])
        with pytest.raises(ValueError, match="not in cluster"):
            solve_gtsp(problem, [[(0, "a"), (1, "a")]])

    def test_deterministic(self):
        problem = random_problem(9, 7, 3, False)
        seeds = [random_tour(problem, seed) for seed in range(2)]
        a, b = solve_gtsp(problem, seeds), solve_gtsp(problem, seeds)
        assert (a.tour, a.cost, a.rounds) == (b.tour, b.cost, b.rounds)


class TestBruteForce:
    def test_size_guard(self):
        problem = constant_problem([[i] for i in range(9)], 1.0)
        with pytest.raises(ValueError):
            brute_force_gtsp(problem)

    def test_enumerates_every_path(self):
        problem = random_problem(4, 4, 2, True)
        best = min(
            problem.tour_cost(list(zip(order, choice)))
            for order in itertools.permutations(range(4))
            for choice in itertools.product(*[problem.clusters[c] for c in order])
        )
        assert brute_force_gtsp(problem).cost == best
