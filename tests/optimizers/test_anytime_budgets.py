"""Anytime iteration budgets of the annealing and GTSP optimizers.

Both optimizers accept an optional budget (``max_steps`` /
``max_generations``) that truncates the search while keeping it an exact
prefix of the unbudgeted walk for the same rng — the foundation of the
deterministic ``degraded`` compiles in the pipeline layer.
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
    points = np.array([(0.0, 0.0), (0.0, 1.0), (5.0, 0.0), (5.0, 1.0), (2.0, 8.0), (3.0, 9.0)])
    offsets = points[:, None, :] - points[None, :, :]
    clusters = [[(0, 0), (0, 1)], [(1, 0), (1, 1)], [(2, 0), (2, 1)]]
    return GtspProblem(
        clusters=clusters, weight_matrix=np.hypot(offsets[..., 0], offsets[..., 1])
    )


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
    def test_budget_truncates_and_flags(self):
        result = solve_gtsp(
            small_problem(),
            population_size=8,
            generations=10,
            rng=np.random.default_rng(0),
            max_generations=3,
        )
        assert result.degraded
        assert result.generations == 3

    def test_budget_at_schedule_is_not_truncation(self):
        result = solve_gtsp(
            small_problem(),
            population_size=8,
            generations=10,
            rng=np.random.default_rng(0),
            max_generations=10,
        )
        assert not result.degraded
        assert result.generations == 10

    def test_zero_budget_still_returns_a_valid_tour(self):
        problem = small_problem()
        result = solve_gtsp(
            problem,
            population_size=8,
            generations=10,
            rng=np.random.default_rng(0),
            max_generations=0,
        )
        assert result.degraded
        assert result.generations == 0
        # Anytime contract: best-of-initial-population, still a legal tour.
        assert problem.tour_cost(result.tour) == pytest.approx(result.cost)

    def test_budgeted_run_is_deterministic(self):
        runs = [
            solve_gtsp(
                small_problem(),
                population_size=8,
                generations=10,
                rng=np.random.default_rng(7),
                max_generations=4,
            )
            for _ in range(2)
        ]
        assert runs[0].tour == runs[1].tour
        assert runs[0].cost == pytest.approx(runs[1].cost)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_generations"):
            solve_gtsp(
                small_problem(),
                population_size=8,
                generations=10,
                rng=np.random.default_rng(0),
                max_generations=-1,
            )
