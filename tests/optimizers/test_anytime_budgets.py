"""Anytime iteration budgets of the Γ annealing walk and the GTSP search.

Both searches accept an optional budget (``max_steps`` / ``max_rounds``)
that truncates the search while keeping it an exact prefix of the
unbudgeted one — the foundation of the deterministic ``degraded`` compiles
in the pipeline layer.
"""

import numpy as np
import pytest

from repro.core import search_block_diagonal_gamma
from repro.optimizers import GtspProblem, solve_gtsp
from repro.vqe import ExcitationTerm

N_STEPS = 40
TERMS = [
    ExcitationTerm(creation=(4, 6), annihilation=(0, 2)),
    ExcitationTerm(creation=(5, 7), annihilation=(1, 3)),
    ExcitationTerm(creation=(4, 7), annihilation=(0, 3)),
]


def anneal(seed=0, max_steps=None):
    """Run the Γ search on 8 qubits; returns the result and the Γ bytes scored."""
    scored = []

    def cost(transform):
        gamma = transform.gamma
        scored.append(gamma.tobytes())
        return float(gamma.sum() + 3 * gamma[:4, 4:].sum())

    result = search_block_diagonal_gamma(
        TERMS, 8, cost, n_steps=N_STEPS, rng=np.random.default_rng(seed),
        max_steps=max_steps,
    )
    return result, scored


def small_problem():
    """Ten two-vertex clusters; from :func:`identity_tour` the search keeps two rounds."""
    rng = np.random.default_rng(2)
    clusters = [[(c, i) for i in range(2)] for c in range(10)]
    return GtspProblem(
        clusters=clusters, weight_matrix=rng.integers(0, 10, size=(20, 20)).astype(float)
    )


def identity_tour(problem):
    return [(c, cluster[0]) for c, cluster in enumerate(problem.clusters)]


class TestAnnealingBudget:
    @pytest.mark.parametrize("budget", [1, 2, 7, N_STEPS - 1, N_STEPS, N_STEPS + 1])
    def test_budgeted_walk_is_a_flagged_prefix_of_the_full_walk(self, budget):
        full, full_scored = anneal(seed=3)
        cut, cut_scored = anneal(seed=3, max_steps=budget)
        assert cut.degraded == (budget < N_STEPS)
        assert cut.n_steps == min(budget, N_STEPS)
        assert cut_scored == full_scored[: len(cut_scored)]
        assert cut.n_evaluations == len(cut_scored)
        if budget >= N_STEPS:
            assert cut_scored == full_scored
            assert cut.gamma.tobytes() == full.gamma.tobytes()

    def test_unbudgeted_walk_is_not_degraded(self):
        result, scored = anneal()
        assert not result.degraded
        assert result.n_steps == N_STEPS
        assert len(scored) > 1

    def test_budgeted_run_is_deterministic(self):
        one, one_scored = anneal(seed=5, max_steps=9)
        two, two_scored = anneal(seed=5, max_steps=9)
        assert one_scored == two_scored
        assert one.gamma.tobytes() == two.gamma.tobytes()
        assert one.cnot_count == two.cnot_count

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            anneal(max_steps=0)


class TestGtspBudget:
    def test_unbudgeted_search_uses_two_rounds(self):
        result = solve_gtsp(small_problem(), [identity_tour(small_problem())])
        assert result.rounds == 2
        assert not result.degraded

    def test_budget_truncates_and_flags(self):
        problem = small_problem()
        full = solve_gtsp(problem, [identity_tour(problem)])
        cut = solve_gtsp(problem, [identity_tour(problem)], max_rounds=1)
        assert cut.degraded
        assert cut.rounds == 1
        assert full.cost < cut.cost < problem.tour_cost(identity_tour(problem))

    def test_zero_budget_returns_the_best_seed_flagged_degraded(self):
        problem = small_problem()
        seeds = [identity_tour(problem), identity_tour(problem)[::-1]]
        best = min(seeds, key=problem.tour_cost)
        result = solve_gtsp(problem, seeds, max_rounds=0)
        assert result.degraded
        assert result.rounds == 0
        assert result.tour == tuple(best)
        assert result.cost == problem.tour_cost(best)

    def test_zero_budget_on_a_converged_seed_is_not_degradation(self):
        problem = small_problem()
        converged = solve_gtsp(problem, [identity_tour(problem)])
        result = solve_gtsp(problem, [converged.tour], max_rounds=0)
        assert not result.degraded
        assert (result.tour, result.cost) == (converged.tour, converged.cost)

    @pytest.mark.parametrize("max_rounds", [2, 3, 100])
    def test_budget_at_or_above_rounds_used_is_not_truncation(self, max_rounds):
        problem = small_problem()
        full = solve_gtsp(problem, [identity_tour(problem)])
        result = solve_gtsp(problem, [identity_tour(problem)], max_rounds=max_rounds)
        assert not result.degraded
        assert (result.tour, result.cost, result.rounds) == (full.tour, full.cost, full.rounds)

    def test_budgeted_run_is_deterministic(self):
        runs = [
            solve_gtsp(small_problem(), [identity_tour(small_problem())], max_rounds=1)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_rounds"):
            solve_gtsp(small_problem(), [identity_tour(small_problem())], max_rounds=-1)
