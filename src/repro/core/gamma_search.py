"""Advanced fermion-to-qubit transformation: block-diagonal Γ search via SA.

Section III-C of the paper.  The search space GL(N, 2) is astronomically
large, so the candidate Γ is restricted to a block-diagonal form derived from
the *topology* of the excitation terms: the creation-side and
annihilation-side index pairs of every double excitation define a graph on the
spin orbitals whose connected components become the blocks.  Each block is an
invertible matrix, and one simulated-annealing walk updates a random block per
step, with the objective being the CNOT count reported by a caller-supplied
cost function.  The walk is the plain Metropolis loop of
:func:`search_block_diagonal_gamma` with a geometric cooling schedule
(``INITIAL_TEMPERATURE`` to ``FINAL_TEMPERATURE``).  A candidate pays only
for what its step changed: the walk carries every block's GF(2) inverse next
to the block and updates both with the row addition, so no candidate is
inverted or re-validated, and Γ and Γ⁻¹ are written into the identity
through flat positions computed once per search.  The search memoizes the
objective on the blocks' bytes and reports how many distinct candidates it
scored.

In the full pipeline that cost is :class:`GreedySortingCost`: the greedy-sort
CNOT count ("subroutine 1" of Fig. 2) of the terms transformed under the
candidate Γ, evaluated on packed bit-planes.  The Jordan-Wigner rotation
planes are built once.  A candidate re-encodes them with
:meth:`repro.core.terms_to_paulis.RotationPlanes.encoded` under the
transform built from the carried pair
(:meth:`repro.transforms.LinearEncodingTransform.from_pair`) — the step
``terms_to_rotations`` takes, so the strings and their order are those the
transform stage compiles — and walks
:func:`repro.core.advanced_sorting.greedy_walk`, the walk ``greedy_sort``
takes.  The search's memo keys on Γ, but distinct Γ often encode each
term's strings as a permutation of themselves, which the label order
undoes; so the cost object memoizes the walk on the label-ordered strings'
bytes and walks each distinct string set once per compile.  The walk
reads its savings from one string-pair table per target it visits
(:meth:`repro.operators.SameTargetSavings.on_target`), one row per step,
so no candidate builds a vertex-pair matrix.
:class:`TermBlockCost` encodes the same way and scores the baseline's
term-block order instead; it is the baseline's PSO objective, and since the
PSO hands it an arbitrary Γ, it builds a checked
:class:`~repro.transforms.LinearEncodingTransform` and inverts Γ itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.advanced_sorting import greedy_walk, term_block_order
from repro.core.hybrid_encoding import BOSONIC_TERM_CNOT_COST
from repro.core.terms_to_paulis import jordan_wigner_rotations
from repro.hardware.topology import Topology
from repro.transforms import LinearEncodingTransform, identity_matrix
from repro.vqe import ExcitationTerm

# The annealing schedule: T cools geometrically from the first to the last
# proposal.  Topology components larger than MAX_BLOCK_SIZE are split.
INITIAL_TEMPERATURE = 2.0
FINAL_TEMPERATURE = 2e-3
MAX_BLOCK_SIZE = 6


def excitation_topology_blocks(
    terms: Sequence[ExcitationTerm], n_qubits: int, max_block_size: int = MAX_BLOCK_SIZE
) -> List[List[int]]:
    """Connected index clusters formed by the excitation terms (Appendix C).

    Edges connect the two creation indices and the two annihilation indices of
    every double excitation.  Connected components larger than
    ``max_block_size`` are split to keep the per-block search space manageable
    (the paper similarly relies on blocks staying small).
    Only components with at least two indices are returned — singleton modes
    stay untouched by Γ.  Components, found by union-find, come in the order
    of their smallest index.
    """
    parent = {index: index for index in range(n_qubits)}

    def root(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    for term in terms:
        if term.is_double:
            for a, b in (term.creation, term.annihilation):
                parent.setdefault(a, a)
                parent.setdefault(b, b)
                parent[root(a)] = root(b)
    components: Dict[int, List[int]] = {}
    for index in parent:
        components.setdefault(root(index), []).append(index)
    blocks: List[List[int]] = []
    for component in components.values():
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


def _entry_positions(n_qubits: int, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Flat positions in an ``n × n`` matrix of every block's entries.

    Block after block, each row-major: entry ``[r, c]`` of a block on indices
    ``b`` sits at ``b[r] * n + b[c]``, so the blocks' raveled matrices,
    concatenated, fill these positions.
    """
    positions = [(block[:, None] * n_qubits + block).ravel() for block in map(np.asarray, blocks)]
    return np.concatenate(positions) if positions else np.zeros(0, dtype=np.intp)


def _embed(n_qubits: int, positions: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The ``n × n`` identity with the block ``entries`` written at ``positions``."""
    matrix = identity_matrix(n_qubits)
    matrix.flat[positions] = entries
    return matrix


def assemble_gamma(
    n_qubits: int, blocks: Sequence[Sequence[int]], block_matrices: Sequence[np.ndarray]
) -> np.ndarray:
    """Write per-block invertible matrices into the full N×N identity.

    The blocks are disjoint, so each is written in place on its rows and
    columns.
    """
    entries = [np.asarray(matrix, dtype=np.uint8).ravel() for matrix in block_matrices]
    return _embed(
        n_qubits,
        _entry_positions(n_qubits, blocks),
        np.concatenate(entries) if entries else np.zeros(0, dtype=np.uint8),
    )


def _random_elementary_update(
    block: np.ndarray, inverse: np.ndarray, rng: np.random.Generator
) -> None:
    """Add a random other row of ``block`` to one of its rows, in place.

    The block stays invertible, and ``inverse`` stays its GF(2) inverse:
    ``B[r] ^= B[c]`` is ``B ← E B`` with ``E = I + e_r e_cᵀ = E⁻¹``, so
    ``B⁻¹ ← B⁻¹ E``, which adds column ``r`` of ``B⁻¹`` to its column ``c``.
    """
    size = block.shape[0]
    row, col = rng.integers(size), rng.integers(size)
    while col == row:
        col = rng.integers(size)
    block[row] ^= block[col]
    inverse[:, col] ^= inverse[:, row]


class GreedySortingCost:
    """The Γ-search objective: greedy-sort cost of the terms encoded under Γ.

    ``GreedySortingCost(terms, n, parameters, topology)(transform)`` equals
    ``greedy_sort(terms_to_rotations(terms, transform, parameters),
    topology).objective()`` for a :class:`LinearEncodingTransform` — the
    all-to-all CNOT count, or the distance-weighted estimate under a
    ``topology``.  The Jordan-Wigner planes are expanded once; each
    candidate re-encodes them under Γ with
    :meth:`~repro.core.terms_to_paulis.RotationPlanes.encoded`, which puts
    each term's strings in label order (the greedy tie-breaks depend on the
    row order).  :func:`~repro.core.advanced_sorting.greedy_walk`, the walk
    ``greedy_sort`` takes, is a pure function of those ordered strings, and
    distinct Γ often map a term's strings onto a permutation of themselves,
    so the walk's cost is memoized on the encoded strings' X/Z bytes: a
    candidate whose label-ordered strings were walked before is not walked
    again.  The memo lives with this object, one compile's search;
    :attr:`n_walks` counts the distinct encodings walked.  Keying on the
    raw :func:`~repro.operators.linear_encoding_image` instead would find
    almost no repeats: the images differ by the permutation the label sort
    undoes.  The transform is taken as given: the search hands over the
    Γ⁻¹ it carries (:meth:`LinearEncodingTransform.from_pair`), so no
    candidate is inverted or validated here.
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
        self._walk_costs: Dict[bytes, float] = {}

    @property
    def n_walks(self) -> int:
        """Distinct label-ordered string sets walked so far."""
        return len(self._walk_costs)

    def __call__(self, transform: LinearEncodingTransform) -> float:
        strings = self._planes.encoded(transform).strings
        # Every candidate has the same row count and word width, so the
        # concatenated planes identify the ordered strings.
        key = strings.x.tobytes() + strings.z.tobytes()
        cost = self._walk_costs.get(key)
        if cost is None:
            cost = self._walk_costs[key] = float(greedy_walk(strings, self._distance).cost)
        return cost


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
    cost_function: Callable[[LinearEncodingTransform], float],
    n_steps: int = 60,
    rng: Optional[np.random.Generator] = None,
    max_steps: Optional[int] = None,
) -> GammaSearchResult:
    """Simulated-annealing search over block-diagonal Γ matrices.

    A Metropolis walk from Γ = I: each step picks a block, applies a random
    elementary row addition to it and accepts a worse candidate with
    probability ``exp(-delta / T)``, drawing ``rng.random()`` only then.  T
    cools geometrically from ``INITIAL_TEMPERATURE`` to
    ``FINAL_TEMPERATURE`` over the ``n_steps`` proposals.

    A candidate costs only what its step changed.  The walk keeps every
    block's GF(2) inverse next to the block and updates both with the row
    addition (:func:`_random_elementary_update`), so no candidate is
    inverted or re-validated.  All blocks live in one flat uint8 vector
    (each block row-major, block after block), and so do their inverses: a
    proposal copies the two vectors, the memo keys on the blocks' bytes,
    and Γ and Γ⁻¹ are written into the identity through flat positions
    computed once per search.

    Parameters
    ----------
    terms:
        The excitation terms whose index topology defines the blocks.
    n_qubits:
        Register size N (Γ is N×N).
    cost_function:
        Maps a candidate's :class:`LinearEncodingTransform` to the CNOT
        count of the compiled circuit; this is "subroutine 1" of Fig. 2
        (advanced sorting + generic circuit compiler).  The pipeline passes
        a :class:`GreedySortingCost`.  The transform comes from
        :meth:`LinearEncodingTransform.from_pair` with the carried Γ⁻¹.
    n_steps:
        Number of SA proposals; 0 scores Γ = I alone.
    max_steps:
        Anytime iteration budget: stop the walk after this many proposals,
        returning the best Γ so far flagged ``degraded=True``.  Deterministic
        for a fixed rng — the truncated walk is an exact prefix of the
        unbudgeted one.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be None or at least 1")
    rng = rng or np.random.default_rng()
    blocks = excitation_topology_blocks(terms, n_qubits, max_block_size=MAX_BLOCK_SIZE)
    positions = _entry_positions(n_qubits, blocks)
    sizes = [len(block) for block in blocks]
    offsets = np.cumsum([0] + [size * size for size in sizes]).tolist()

    def block_view(entries: np.ndarray, index: int) -> np.ndarray:
        size = sizes[index]
        return entries[offsets[index]:offsets[index + 1]].reshape(size, size)

    # The cost function (bit-plane transform + greedy walk) is deterministic
    # in Γ and by far the dominant expense, while the elementary-update walk
    # frequently revisits the same candidate; memoize on the blocks' bytes,
    # which determine Γ.
    cost_cache: Dict[bytes, float] = {}
    n_cache_hits = 0

    def energy(entries: np.ndarray, inverse_entries: np.ndarray) -> float:
        nonlocal n_cache_hits
        key = entries.tobytes()
        cached = cost_cache.get(key)
        if cached is None:
            transform = LinearEncodingTransform.from_pair(
                _embed(n_qubits, positions, entries),
                _embed(n_qubits, positions, inverse_entries),
            )
            cached = float(cost_function(transform))
            cost_cache[key] = cached
        else:
            n_cache_hits += 1
        return cached

    # Γ = I: the identity's entries at the block positions, its own inverse.
    current = identity_matrix(n_qubits).flat[positions]
    current_inverse = current.copy()
    current_energy = energy(current, current_inverse)
    best, best_energy = current, current_energy
    if not blocks:
        n_steps = 0
    n_run = n_steps if max_steps is None else min(n_steps, max_steps)
    ratio = FINAL_TEMPERATURE / INITIAL_TEMPERATURE
    for step in range(n_run):
        fraction = step / (n_steps - 1) if n_steps > 1 else 0.0
        temperature = INITIAL_TEMPERATURE * ratio ** fraction
        index = int(rng.integers(len(blocks)))
        candidate, candidate_inverse = current.copy(), current_inverse.copy()
        _random_elementary_update(
            block_view(candidate, index), block_view(candidate_inverse, index), rng
        )
        candidate_energy = energy(candidate, candidate_inverse)
        delta = candidate_energy - current_energy
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, current_inverse = candidate, candidate_inverse
            current_energy = candidate_energy
            if current_energy < best_energy:
                best, best_energy = current, current_energy
    return GammaSearchResult(
        gamma=_embed(n_qubits, positions, best),
        cnot_count=best_energy,
        blocks=blocks,
        n_steps=n_run,
        degraded=n_run < n_steps,
        n_evaluations=len(cost_cache),
        n_cache_hits=n_cache_hits,
    )
