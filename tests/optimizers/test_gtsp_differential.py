"""The GTSP local search against its restart-scan reference, draw for draw.

``gtsp_reference`` keeps the search as it was before Or-opt resumed its scan
after a move, before the scans cached their index arrays, and before the
cluster DP stepped with two numpy calls per layer.  On random integer weight
matrices, small ranges so that ties are common, with uneven clusters and
paths long enough to span several scan blocks, the package must return
exactly what the reference returns: the same Or-opt moves and paths, the
same DP vertex choice, and the same ``solve_gtsp`` tour, cost, rounds and
degraded flag under every round budget.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtsp_reference as reference
import repro.optimizers.gtsp as gtsp
from repro.optimizers import GtspProblem, solve_gtsp


def tied_problem(seed, n_clusters, max_cluster_size, weight_range):
    """Integer weights in ``[-weight_range, weight_range]``, uneven clusters."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, max_cluster_size + 1, size=n_clusters)
    clusters = [[(c, i) for i in range(int(size))] for c, size in enumerate(sizes)]
    n = int(sizes.sum())
    matrix = rng.integers(-weight_range, weight_range + 1, size=(n, n)).astype(float)
    start = rng.integers(0, weight_range + 1, size=n).astype(float)
    return GtspProblem(clusters=clusters, weight_matrix=matrix, start_weights=start)


def shuffled_rows(problem, seed):
    """A random cluster order with a random vertex in every cluster."""
    rng = np.random.default_rng(seed)
    rows = problem._padded_rows
    return np.array(
        [
            rows[c, int(rng.integers(len(problem.clusters[c])))]
            for c in rng.permutation(problem.n_clusters)
        ],
        dtype=np.intp,
    )


problems = st.builds(
    tied_problem,
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 4),
    st.integers(1, 4),
)


@settings(max_examples=150, deadline=None)
@given(problems, st.integers(0, 2**32 - 1))
def test_or_opt_makes_the_reference_moves(problem, seed):
    """The resumed scan applies the moves a scan from run 1 applies, in order."""
    rows = shuffled_rows(problem, seed)
    moves = []
    with mock.patch.object(gtsp, "_move_run", wraps=gtsp._move_run) as move_run:
        resumed = gtsp._or_opt(problem, rows)
    expected = reference.or_opt(problem, rows, moves)
    assert [call.args[1] for call in move_run.call_args_list] == moves
    assert resumed.tobytes() == expected.tobytes()


def perturbed_fixpoint(problem, seed, n_kicks):
    """An Or-opt fixpoint with ``n_kicks`` random runs moved elsewhere.

    Near a fixpoint the first improving moves lie past the first scan
    blocks, so the scan resumes late and the runs before the resume point
    are re-priced against the new gaps alone.
    """
    rng = np.random.default_rng(seed)
    path = np.concatenate(
        ([problem._begin], reference.or_opt(problem, shuffled_rows(problem, seed)), [problem._end])
    )
    m = problem.n_clusters
    for _ in range(n_kicks if m > 3 else 0):
        length = int(rng.integers(1, 4))
        i = int(rng.integers(1, m - length + 2))
        gap = int(rng.choice([g for g in range(m + 1) if not i - 1 <= g <= i + length - 1]))
        path = reference.apply_move(path, (i, length, gap))
    return path[1:-1]


@settings(max_examples=150, deadline=None)
@given(
    st.builds(tied_problem, st.integers(0, 2**32 - 1), st.integers(20, 90), st.integers(1, 3),
              st.integers(1, 6)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
)
def test_or_opt_resumes_near_a_fixpoint(problem, seed, n_kicks):
    """Moves late in the path: the resumed scan still makes the reference moves."""
    rows = perturbed_fixpoint(problem, seed, n_kicks)
    moves = []
    with mock.patch.object(gtsp, "_move_run", wraps=gtsp._move_run) as move_run:
        resumed = gtsp._or_opt(problem, rows)
    expected = reference.or_opt(problem, rows, moves)
    assert [call.args[1] for call in move_run.call_args_list] == moves
    assert resumed.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.builds(tied_problem, st.integers(0, 2**32 - 1), st.integers(6, 40), st.integers(1, 3),
              st.integers(1, 6)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_new_gaps_decide_the_runs_before_a_move(problem, seed, data):
    """From an Or-opt fixpoint, after any move (improving or not), the runs
    that end before the first new edge improve exactly as the full scan
    says, through the same first cheapest gap."""
    m = problem.n_clusters
    path = np.concatenate(
        ([problem._begin], reference.or_opt(problem, shuffled_rows(problem, seed)), [problem._end])
    )
    length = data.draw(st.integers(1, 3), label="length")
    i = data.draw(st.integers(1, m - length + 1), label="i")
    gap = data.draw(
        st.sampled_from([g for g in range(m + 1) if not i - 1 <= g <= i + length - 1]),
        label="gap",
    )
    moved, changed = gtsp._move_run(path, (i, length, gap))
    assert moved.tobytes() == reference.apply_move(path, (i, length, gap)).tobytes()
    # The first run start whose longest run reaches the earliest new edge.
    hi = min(gap, i - 1) - gtsp.OR_OPT_MAX_RUN + 1
    if hi > 1:
        assert gtsp._first_move_through(problem._weights, moved, hi, changed) == (
            reference.first_move(problem._weights, moved, 1, hi)
        )


@settings(max_examples=150, deadline=None)
@given(problems, st.integers(0, 2**32 - 1))
def test_cluster_dp_matches_the_reference(problem, seed):
    rows = shuffled_rows(problem, seed)
    assert gtsp._optimize_vertices(problem, rows).tobytes() == (
        reference.optimize_vertices(problem, rows).tobytes()
    )


@settings(max_examples=100, deadline=None)
@given(
    problems,
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    st.sampled_from([None, 0, 1, 2]),
)
def test_solve_gtsp_matches_the_reference(problem, seeds, max_rounds):
    tours = [problem._tour(shuffled_rows(problem, seed).tolist()) for seed in seeds]
    result = solve_gtsp(problem, tours, max_rounds=max_rounds)
    with mock.patch.object(gtsp, "_or_opt", reference.or_opt), mock.patch.object(
        gtsp, "_optimize_vertices", reference.optimize_vertices
    ):
        expected = solve_gtsp(problem, tours, max_rounds=max_rounds)
    assert (result.tour, result.cost, result.rounds, result.degraded) == (
        expected.tour, expected.cost, expected.rounds, expected.degraded
    )


@pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 33])
def test_short_and_block_edge_paths(m):
    """Paths of one and two clusters, and lengths at the scan-block edges."""
    problem = tied_problem(m, m, 2, 2)
    for seed in range(5):
        rows = shuffled_rows(problem, seed)
        assert gtsp._or_opt(problem, rows).tobytes() == reference.or_opt(problem, rows).tobytes()
        assert gtsp._optimize_vertices(problem, rows).tobytes() == (
            reference.optimize_vertices(problem, rows).tobytes()
        )
