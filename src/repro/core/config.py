"""Frozen configuration of the compilation flows.

:class:`CompilerConfig` replaces the loose keyword-argument soup that used to
be threaded through the pipeline's old entry points and
:func:`repro.compile_molecule_ansatz`.  It is frozen (hashable), so a config
can key caches — :func:`repro.api.compile_batch` memoizes on
``(terms fingerprint, backend, config)`` — and be shared between threads and
worker processes without defensive copying.

The class lives in :mod:`repro.core` because the pipeline stages consume it;
the public import path is :mod:`repro.api`.

The paper sorts with a genetic algorithm sized by a population and a
generation count.  This compiler departs from it: following Gutin and
Karapetyan's memetic GTSP (Natural Computing 9, 2010), where the local
search does the work, the sort runs that local search alone from fixed seed
tours (:mod:`repro.optimizers.gtsp`) and stops when it converges.  So its
only knob is an optional round budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.hardware.topology import Topology


@dataclass(frozen=True)
class CompilerConfig:
    """Immutable knobs shared by every compilation backend.

    It holds no feature switches: every backend runs its full flow, and an
    ablation substitutes a pipeline stage (see :mod:`repro.core.pipeline`).

    Parameters
    ----------
    gamma_steps:
        Simulated-annealing proposals for the Γ search (Sec. III-C); 0 keeps
        Γ = I.
    coloring_orders:
        Randomized greedy orders tried by the hybrid-scheduling graph coloring.
    gamma_budget_steps, sorting_budget_rounds:
        Optional per-stage *anytime budgets* (``None`` = unbounded, the
        default).  ``gamma_budget_steps`` caps the Γ simulated-annealing
        walk at that many proposals; ``sorting_budget_rounds`` caps the
        GTSP local search at that many improving rounds per seed tour.  A
        stage that hits its budget returns its best-so-far result and the
        compile is flagged ``degraded=True`` (see
        ``CompileResult.degraded``) instead of running unbounded.  Both
        budgets are iteration counts, not wall time, so degraded outputs
        are bit-reproducible for a fixed seed.
    seed:
        Seed of the internal random generator (every flow is deterministic for
        a fixed seed).
    baseline_pso_particles, baseline_pso_iterations:
        Budget of the baseline compiler's binary-PSO transformation search
        (``iterations=0`` keeps the identity transformation, the default).
    topology:
        Optional device :class:`~repro.hardware.topology.Topology`.  When
        set, every backend synthesizes its rotation sequence with the
        topology-steered parity ladders and attaches
        :class:`~repro.hardware.routing.RoutingMetrics` to its result, and
        the advanced sorting's GTSP weights switch to the distance-weighted
        cost matrix.  ``None`` (the default) keeps the paper's all-to-all
        accounting bit-identical.
    """

    gamma_steps: int = 40
    coloring_orders: int = 20
    gamma_budget_steps: Optional[int] = None
    sorting_budget_rounds: Optional[int] = None
    seed: Optional[int] = 0
    baseline_pso_particles: int = 10
    baseline_pso_iterations: int = 0
    topology: Optional[Topology] = None

    def __post_init__(self):
        if self.topology is not None:
            if not isinstance(self.topology, Topology):
                raise TypeError("topology must be a repro.hardware.Topology or None")
            self.topology.require_connected()
        if self.gamma_steps < 0:
            raise ValueError("gamma_steps must be non-negative")
        if self.coloring_orders < 1:
            raise ValueError("coloring_orders must be at least 1")
        if self.gamma_budget_steps is not None and self.gamma_budget_steps < 1:
            raise ValueError("gamma_budget_steps must be None or at least 1")
        if self.sorting_budget_rounds is not None and self.sorting_budget_rounds < 0:
            raise ValueError("sorting_budget_rounds must be None or non-negative")
        if self.baseline_pso_particles < 1:
            raise ValueError("baseline_pso_particles must be at least 1")
        if self.baseline_pso_iterations < 0:
            raise ValueError("baseline_pso_iterations must be non-negative")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be None or non-negative")

    def replace(self, **changes) -> "CompilerConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    @cached_property
    def fingerprint(self) -> Tuple:
        """Hashable identity of the config, used in compilation cache keys.

        Computed once per instance; :func:`fields_state` keeps it out of
        pickles.
        """
        return dataclasses.astuple(self)

    def __getstate__(self):
        return fields_state(self)


def fields_state(instance) -> Dict[str, Any]:
    """Pickle state of a frozen dataclass: its fields, not its cached properties."""
    return {
        field.name: getattr(instance, field.name) for field in dataclasses.fields(instance)
    }
