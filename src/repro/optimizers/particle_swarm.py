"""Binary particle swarm optimization (baseline solver).

The prior-art pipeline ([8], [9] in the paper) searched the space of
upper-triangular fermion-to-qubit transformation matrices with particle swarm
optimization (PSO).  The paper replaces PSO with simulated annealing, citing
PSO's tendency to stall in local minima; we implement the binary PSO here both
to reproduce the baseline column of Table I and to support the ablation
benchmarks that compare the two searches head to head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

INERTIA = 0.7
COGNITIVE = 1.4
SOCIAL = 1.4


@dataclass
class PsoResult:
    """Outcome of a binary PSO run."""

    best_position: np.ndarray
    best_value: float
    iterations: int
    value_trace: List[float]


def binary_particle_swarm(
    objective: Callable[[np.ndarray], float],
    n_bits: int,
    n_particles: int = 20,
    iterations: int = 50,
    rng: Optional[np.random.Generator] = None,
    initial_position: Optional[np.ndarray] = None,
) -> PsoResult:
    """Minimize ``objective`` over binary vectors of length ``n_bits``.

    Standard binary PSO: real-valued velocities are squashed through a sigmoid
    to give per-bit flip probabilities.  The swarm is seeded around
    ``initial_position`` when provided (e.g. the identity transformation).
    """
    if n_bits < 1:
        raise ValueError("n_bits must be positive")
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    rng = rng or np.random.default_rng()

    positions = rng.integers(0, 2, size=(n_particles, n_bits)).astype(np.uint8)
    if initial_position is not None:
        initial_position = np.asarray(initial_position, dtype=np.uint8).reshape(-1)
        if initial_position.size != n_bits:
            raise ValueError("initial_position length must equal n_bits")
        positions[0] = initial_position
    velocities = rng.normal(scale=0.5, size=(n_particles, n_bits))

    personal_best = positions.copy()
    personal_values = np.array([float(objective(p)) for p in positions])
    global_index = int(np.argmin(personal_values))
    global_best = personal_best[global_index].copy()
    global_value = float(personal_values[global_index])
    trace = [global_value]

    for _ in range(iterations):
        r_cognitive = rng.random(size=(n_particles, n_bits))
        r_social = rng.random(size=(n_particles, n_bits))
        velocities = (
            INERTIA * velocities
            + COGNITIVE * r_cognitive * (personal_best - positions)
            + SOCIAL * r_social * (global_best - positions)
        )
        flip_probabilities = 1.0 / (1.0 + np.exp(-velocities))
        positions = (rng.random(size=positions.shape) < flip_probabilities).astype(np.uint8)

        for i in range(n_particles):
            value = float(objective(positions[i]))
            if value < personal_values[i]:
                personal_values[i] = value
                personal_best[i] = positions[i].copy()
                if value < global_value:
                    global_value = value
                    global_best = positions[i].copy()
        trace.append(global_value)

    return PsoResult(
        best_position=global_best,
        best_value=global_value,
        iterations=iterations,
        value_trace=trace,
    )
