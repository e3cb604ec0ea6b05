"""Unit tests for the seeded GTSP local search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizers import GtspProblem, brute_force_gtsp, solve_gtsp
from repro.optimizers.gtsp import OR_OPT_MAX_RUN, _first_move, _or_opt


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


def scalar_first_move(weights, path, lo, hi):
    """Reference for ``_first_move``: every move scored on its own, in rank order."""
    m = len(path) - 2

    def weight(a, b):
        return weights[path[a], path[b]]

    for i in range(lo, hi):
        for length in range(1, min(OR_OPT_MAX_RUN, m - 1) + 1):
            j = i + length - 1
            if j > m:
                break
            removal = weight(i - 1, j + 1) - weight(i - 1, i) - weight(j, j + 1)
            best = None
            for gap in range(m + 1):
                if i - 1 <= gap <= j:
                    continue
                insertion = (weight(gap, i) + weight(j, gap + 1)) - weight(gap, gap + 1)
                if best is None or insertion < best[0]:
                    best = (insertion, gap)
            if removal + best[0] < 0:
                return i, length, best[1]
    return None


def full_path(problem, rows):
    return np.array([problem._begin, *rows, problem._end], dtype=np.intp)


class TestFirstMove:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(2, 20), st.integers(1, 3), st.booleans(), st.data()
    )
    def test_matches_scalar_enumeration(self, seed, m, width, integer_weights, data):
        """Random paths, tie-heavy integer or float weights, and run-start
        blocks anywhere, including blocks whose longer runs cross the path
        end."""
        problem = random_problem(seed, m, width, integer_weights)
        path = full_path(problem, problem.tour_rows(random_tour(problem, seed + 1)))
        lo = data.draw(st.integers(1, m), label="lo")
        hi = data.draw(st.integers(lo + 1, m + 1), label="hi")
        expected = scalar_first_move(problem._weights, path, lo, hi)
        assert _first_move(problem._weights, path, lo, hi) == expected

    def test_single_cluster_has_no_move(self):
        problem = random_problem(0, 1, 2, True)
        assert _first_move(problem._weights, full_path(problem, [0]), 1, 2) is None

    def test_run_crossing_the_path_end_is_skipped(self):
        # On a line visited 0, 1, 3, 2 the only improving move starts at the
        # last cluster; its runs of length 2 and 3 would cross the path end.
        problem = euclidean_problem([[(x, 0)] for x in range(4)])
        path = full_path(problem, [0, 1, 3, 2])
        expected = scalar_first_move(problem._weights, path, 4, 5)
        assert expected is not None and expected[1] == 1
        assert _first_move(problem._weights, path, 4, 5) == expected

    @settings(max_examples=60, deadline=None)
    @given(problem_shapes.filter(lambda shape: shape[1] >= 2), st.integers(0, 10_000))
    def test_or_opt_ends_on_a_fixpoint(self, shape, tour_seed):
        """After an Or-opt pass no run has an improving move: the fact that
        lets a round whose DP changes nothing stop without a scan."""
        problem = random_problem(*shape)
        rows = np.array(problem.tour_rows(random_tour(problem, tour_seed)), dtype=np.intp)
        rows = _or_opt(problem, rows)
        path = full_path(problem, rows)
        assert _first_move(problem._weights, path, 1, len(rows) + 1) is None
        assert np.array_equal(_or_opt(problem, rows), rows)


class TestRepeatedSeeds:
    @settings(max_examples=80, deadline=None)
    @given(
        problem_shapes,
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        st.sampled_from([None, 0, 1, 2]),
    )
    def test_counts_like_separate_searches(self, shape, tour_seeds, max_rounds):
        """Repeated seed tours are searched once but counted every time:
        rounds, degraded flag, tour and cost equal those of searching each
        seed on its own, with and without a round budget."""
        problem = random_problem(*shape)
        seeds = [random_tour(problem, seed) for seed in tour_seeds]
        result = solve_gtsp(problem, seeds, max_rounds=max_rounds)
        alone = [solve_gtsp(problem, [seed], max_rounds=max_rounds) for seed in seeds]
        assert result.rounds == sum(single.rounds for single in alone)
        assert result.degraded == any(single.degraded for single in alone)
        best = min(alone, key=lambda single: single.cost)
        assert (result.tour, result.cost) == (best.tour, best.cost)

    def test_repeat_counts_its_rounds_again(self):
        problem = euclidean_problem([[(x, 0)] for x in range(6)])
        seed = [(c, (c, 0)) for c in (3, 1, 5, 0, 4, 2)]
        once = solve_gtsp(problem, [seed])
        assert once.rounds > 0
        twice = solve_gtsp(problem, [seed, list(seed)])
        assert twice.rounds == 2 * once.rounds
        assert (twice.tour, twice.cost) == (once.tour, once.cost)


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
