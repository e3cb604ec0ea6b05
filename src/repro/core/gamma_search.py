"""Advanced fermion-to-qubit transformation: block-diagonal Γ search via SA.

Section III-C of the paper.  The search space GL(N, 2) is astronomically
large, so the candidate Γ is restricted to a block-diagonal form derived from
the *topology* of the excitation terms: the creation-side and
annihilation-side index pairs of every double excitation define a graph on the
spin orbitals whose connected components become the blocks.  Each block is an
independent invertible matrix searched with simulated annealing, with the
objective being the CNOT count reported by a caller-supplied cost function.
The search memoizes that objective on the Γ bit pattern and reports how many
distinct candidates it scored.

In the full pipeline that cost is :class:`GreedySortingCost`: the greedy-sort
CNOT count ("subroutine 1" of Fig. 2) of the terms transformed under the
candidate Γ, evaluated on packed bit-planes.  The Jordan-Wigner rotation
planes are built once.  A candidate re-encodes them with
:meth:`repro.core.terms_to_paulis.RotationPlanes.encoded` — the step
``terms_to_rotations`` takes, so the strings and their order are those the
transform stage compiles — and walks
:func:`repro.core.advanced_sorting.greedy_walk`, the walk ``greedy_sort``
takes.  The walk reads its savings from string-pair tables
(:class:`repro.operators.SameTargetSavings`), one row per step, so no
candidate builds a vertex-pair matrix.  :class:`TermBlockCost` encodes the
same way and scores the baseline's term-block order instead; it is the
baseline's PSO objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.advanced_sorting import greedy_walk, term_block_order
from repro.core.hybrid_encoding import BOSONIC_TERM_CNOT_COST
from repro.core.terms_to_paulis import jordan_wigner_rotations
from repro.hardware.topology import Topology
from repro.optimizers import AnnealingSchedule, simulated_annealing
from repro.transforms import (
    LinearEncodingTransform,
    embed_block,
    gf2_matmul,
    identity_matrix,
    is_invertible,
)
from repro.vqe import ExcitationTerm


def excitation_topology_blocks(
    terms: Sequence[ExcitationTerm], n_qubits: int, max_block_size: int = 6
) -> List[List[int]]:
    """Connected index clusters formed by the excitation terms (Appendix C).

    Edges connect the two creation indices and the two annihilation indices of
    every double excitation.  Connected components larger than
    ``max_block_size`` are split to keep the per-block search space manageable
    (the paper similarly relies on blocks staying small).
    Only components with at least two indices are returned — singleton modes
    stay untouched by Γ.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(n_qubits))
    for term in terms:
        if term.is_double:
            graph.add_edge(*term.creation)
            graph.add_edge(*term.annihilation)
    blocks: List[List[int]] = []
    for component in nx.connected_components(graph):
        indices = sorted(component)
        if len(indices) < 2:
            continue
        for start in range(0, len(indices), max_block_size):
            chunk = indices[start:start + max_block_size]
            if len(chunk) >= 2:
                blocks.append(chunk)
    return blocks


@dataclass
class GammaSearchResult:
    """Best block-diagonal Γ found by the simulated-annealing search.

    ``degraded`` is True when a ``max_steps`` budget truncated the annealing
    walk before its schedule finished: the Γ is the best seen so far, valid
    but possibly short of the unbudgeted optimum.  ``n_evaluations`` counts
    the distinct Γ the objective scored and ``n_cache_hits`` the revisits
    served from the search's memo.
    """

    gamma: np.ndarray
    cnot_count: float
    blocks: List[List[int]]
    n_steps: int
    degraded: bool = False
    n_evaluations: int = 0
    n_cache_hits: int = 0


def assemble_gamma(
    n_qubits: int, blocks: Sequence[Sequence[int]], block_matrices: Sequence[np.ndarray]
) -> np.ndarray:
    """Embed per-block invertible matrices into the full N×N identity."""
    gamma = identity_matrix(n_qubits)
    for indices, matrix in zip(blocks, block_matrices):
        gamma = gf2_matmul(embed_block(n_qubits, indices, matrix), gamma)
    return gamma


def _random_elementary_update(
    matrix: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Multiply a block matrix by a random elementary row addition (stays invertible)."""
    size = matrix.shape[0]
    updated = matrix.copy()
    row, col = rng.integers(size), rng.integers(size)
    while col == row:
        col = rng.integers(size)
    updated[row] ^= updated[col]
    return updated


class GreedySortingCost:
    """The Γ-search objective: greedy-sort cost of the terms encoded under Γ.

    ``GreedySortingCost(terms, n, parameters, topology)(Γ)`` equals
    ``greedy_sort(terms_to_rotations(terms, LinearEncodingTransform(Γ),
    parameters), topology).objective()`` — the all-to-all CNOT count, or the
    distance-weighted estimate under a ``topology``.  The Jordan-Wigner
    planes are expanded once; each candidate is scored from scratch:
    :meth:`~repro.core.terms_to_paulis.RotationPlanes.encoded` re-encodes
    them under Γ (the greedy tie-breaks depend on the row order), then
    :func:`~repro.core.advanced_sorting.greedy_walk`, the walk
    ``greedy_sort`` takes, reads its savings from string pairs one row per
    step.
    """

    def __init__(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: int,
        parameters: Optional[Sequence[float]] = None,
        topology: Optional[Topology] = None,
    ):
        self._planes = jordan_wigner_rotations(terms, n_qubits, parameters)
        self._distance = None if topology is None else topology.distance_matrix

    def __call__(self, gamma: np.ndarray) -> float:
        planes = self._planes.encoded(LinearEncodingTransform(gamma))
        return float(greedy_walk(planes.strings, self._distance).cost)


class TermBlockCost:
    """The baseline's PSO objective: its CNOT count under a candidate Γ.

    ``TermBlockCost(terms, n, use_bosonic_encoding)(Γ)`` equals
    ``BaselineCompiler(use_bosonic_encoding, transform_matrix=Γ).compile(
    terms, n).cnot_count``: the bosonic terms' fixed cost plus the ordered
    :func:`~repro.core.advanced_sorting.term_block_order` of the other
    terms' rotations, expanded once and re-encoded per candidate by
    :meth:`~repro.core.terms_to_paulis.RotationPlanes.encoded`.
    """

    def __init__(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: int,
        use_bosonic_encoding: bool = True,
    ):
        terms = list(terms)
        uncompressed = [
            term for term in terms
            if not (use_bosonic_encoding and term.encoding_class == "bosonic")
        ]
        self._planes = jordan_wigner_rotations(uncompressed, n_qubits)
        self._bosonic_cnots = BOSONIC_TERM_CNOT_COST * (len(terms) - len(uncompressed))

    def __call__(self, gamma: np.ndarray) -> float:
        planes = self._planes.encoded(LinearEncodingTransform(gamma))
        order = term_block_order(planes.strings, planes.term_index)
        return float(self._bosonic_cnots + order.cnot_count)


def search_block_diagonal_gamma(
    terms: Sequence[ExcitationTerm],
    n_qubits: int,
    cost_function: Callable[[np.ndarray], float],
    n_steps: int = 60,
    initial_temperature: float = 2.0,
    max_block_size: int = 6,
    rng: Optional[np.random.Generator] = None,
    max_steps: Optional[int] = None,
) -> GammaSearchResult:
    """Simulated-annealing search over block-diagonal Γ matrices.

    Parameters
    ----------
    terms:
        The excitation terms whose index topology defines the blocks.
    n_qubits:
        Register size N (Γ is N×N).
    cost_function:
        Maps a candidate Γ to the CNOT count of the compiled circuit; this is
        "subroutine 1" of Fig. 2 (advanced sorting + generic circuit
        compiler).  The pipeline passes a :class:`GreedySortingCost`.
    n_steps:
        Number of SA proposals.
    max_steps:
        Anytime iteration budget: stop the walk after this many proposals,
        returning the best Γ so far flagged ``degraded=True``.  Deterministic
        for a fixed rng — the truncated walk is an exact prefix of the
        unbudgeted one.
    """
    rng = rng or np.random.default_rng()
    blocks = excitation_topology_blocks(terms, n_qubits, max_block_size=max_block_size)
    identity = identity_matrix(n_qubits)
    if not blocks:
        return GammaSearchResult(
            gamma=identity,
            cnot_count=float(cost_function(identity)),
            blocks=[],
            n_steps=0,
            n_evaluations=1,
        )

    initial_state: Tuple[np.ndarray, ...] = tuple(
        identity_matrix(len(block)) for block in blocks
    )

    # The cost function (bit-plane transform + greedy walk) is deterministic
    # in Γ and by far the dominant expense, while the elementary-update walk
    # frequently revisits the same candidate; memoize on the Γ bit pattern.
    cost_cache: Dict[bytes, float] = {}
    n_cache_hits = 0

    def energy(state: Tuple[np.ndarray, ...]) -> float:
        nonlocal n_cache_hits
        gamma = assemble_gamma(n_qubits, blocks, state)
        key = gamma.tobytes()
        cached = cost_cache.get(key)
        if cached is None:
            cached = float(cost_function(gamma))
            cost_cache[key] = cached
        else:
            n_cache_hits += 1
        return cached

    def neighbor(
        state: Tuple[np.ndarray, ...], generator: np.random.Generator
    ) -> Tuple[np.ndarray, ...]:
        index = int(generator.integers(len(state)))
        updated = list(state)
        updated[index] = _random_elementary_update(state[index], generator)
        return tuple(updated)

    schedule = AnnealingSchedule(
        initial_temperature=initial_temperature,
        final_temperature=max(initial_temperature * 1e-3, 1e-6),
        n_steps=n_steps,
    )
    result = simulated_annealing(
        initial_state, energy, neighbor, schedule=schedule, rng=rng, max_steps=max_steps
    )
    best_gamma = assemble_gamma(n_qubits, blocks, result.best_state)
    if not is_invertible(best_gamma):
        # Elementary updates preserve invertibility, so this should never
        # trigger; guard against silent corruption regardless.
        best_gamma = identity
    return GammaSearchResult(
        gamma=best_gamma,
        cnot_count=float(result.best_energy),
        blocks=blocks,
        n_steps=result.n_steps,
        degraded=result.truncated,
        n_evaluations=len(cost_cache),
        n_cache_hits=n_cache_hits,
    )
