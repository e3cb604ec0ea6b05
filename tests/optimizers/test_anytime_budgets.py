"""Anytime iteration budgets of the annealing and GTSP optimizers.

Both optimizers accept an optional budget (``max_steps`` / ``max_rounds``)
that truncates the search while keeping it an exact prefix of the
unbudgeted one — the foundation of the deterministic ``degraded`` compiles
in the pipeline layer.
"""

import numpy as np
import pytest

from repro.optimizers import GtspProblem, solve_gtsp
from repro.optimizers.simulated_annealing import AnnealingSchedule, simulated_annealing


def anneal(seed=0, max_steps=None, n_steps=40):
    """Minimize |x| over the integers with ±1 moves; deterministic per seed."""
    return simulated_annealing(
        12,
        energy=lambda x: float(abs(x)),
        neighbor=lambda x, rng: x + int(rng.choice([-1, 1])),
        schedule=AnnealingSchedule(n_steps=n_steps),
        rng=np.random.default_rng(seed),
        record_trace=True,
        max_steps=max_steps,
    )


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
    def test_budget_truncates_and_flags(self):
        result = anneal(max_steps=7)
        assert result.truncated
        assert result.n_steps == 7

    def test_budget_at_or_above_schedule_is_not_truncation(self):
        assert not anneal(max_steps=40).truncated
        assert not anneal(max_steps=41).truncated
        assert not anneal().truncated

    def test_truncated_walk_is_exact_prefix_of_full_walk(self):
        full = anneal(seed=3)
        cut = anneal(seed=3, max_steps=11)
        assert cut.energy_trace == full.energy_trace[:11]

    def test_budgeted_run_is_deterministic(self):
        one, two = anneal(seed=5, max_steps=9), anneal(seed=5, max_steps=9)
        assert one.best_state == two.best_state
        assert one.best_energy == two.best_energy
        assert one.energy_trace == two.energy_trace

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
