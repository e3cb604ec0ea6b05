"""Advanced sorting: GTSP-based ordering of Pauli rotations with free targets.

Section III-B of the paper.  Every Pauli rotation may choose its own target
qubit, and rotations from *different* excitation terms may interleave; both
degrees of freedom are folded into one generalized traveling salesman problem
whose clusters are the rotations and whose vertices are the admissible
``(rotation, target)`` pairs.  An edge costs the CNOTs of its head vertex's
exponential minus the cancellation at the interface with its tail, and the
first vertex pays its own CNOTs, so the cost of a path is the compiled CNOT
count (or, under a topology, the routed estimate) exactly.

The paper solves this GTSP with a genetic algorithm; :func:`advanced_sort`
does not.  Following Gutin and Karapetyan's memetic GTSP (Natural Computing
9, 2010), where the local search does the work, it runs the deterministic
local search of :func:`repro.optimizers.solve_gtsp` from three seed tours:
the greedy walk and the term-block order, chained and unchained.  It draws
no random numbers and never returns worse than its best seed.

The module also holds the prior art's fixed construction,
:func:`term_block_order` (one shared target per term): the baseline and
JW/BK flows compile with it, the baseline's Γ search scores with it, and it
seeds the GTSP search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import interface_cnot_reduction, sequence_cnot_count
from repro.core.terms_to_paulis import PauliRotation
from repro.hardware.topology import Topology
from repro.operators import (
    PackedPaulis,
    PauliString,
    interface_reduction_matrix,
    routed_vertex_cost_vector,
    support_matrix,
    weight_vector,
)
from repro.optimizers import GtspProblem, solve_gtsp, solve_tsp

#: A GTSP vertex: (rotation index, target qubit).
SortingVertex = Tuple[int, int]

#: The vertices of a rotation list and their pairwise savings matrix, as
#: :func:`vertex_savings` returns them.
VertexSavings = Tuple[List[SortingVertex], np.ndarray]


def vertex_savings(rotations: Sequence[PauliRotation]) -> VertexSavings:
    """All ``(rotation, target)`` vertices plus their pairwise savings matrix.

    Vertices are enumerated in (rotation index, ascending target) order; the
    matrix entry ``[a, b]`` is the interface CNOT saving of implementing
    vertex ``b`` right after vertex ``a``, computed in one batched symplectic
    scan (:func:`repro.operators.interface_reduction_matrix`) instead of one
    Python loop per GTSP edge query.
    """
    vertices: List[SortingVertex] = []
    for index, rotation in enumerate(rotations):
        for target in rotation.string.support:
            vertices.append((index, target))
    if not vertices:
        return [], np.zeros((0, 0), dtype=np.int64)
    matrix = interface_reduction_matrix(
        [rotations[index].string for index, _ in vertices],
        [target for _, target in vertices],
    )
    return vertices, matrix


@dataclass
class SortingResult:
    """Ordered, targeted rotation sequence produced by the advanced sorting.

    ``cnot_count`` is always the paper's all-to-all accounting;
    ``routed_cost_estimate`` is the distance-weighted cost of the same
    sequence when the sort ran against a topology (``None`` otherwise).
    ``degraded`` is True when a round budget (``max_rounds``) truncated
    the GTSP search: the sequence is valid and best-so-far, but the search
    stopped short of converging.
    """

    ordered_rotations: List[Tuple[PauliRotation, int]]
    cnot_count: int
    routed_cost_estimate: Optional[int] = None
    degraded: bool = False

    def targeted_strings(self) -> List[Tuple[PauliString, int]]:
        """The ``(PauliString, target)`` pairs in compiled order."""
        return [(rotation.string, target) for rotation, target in self.ordered_rotations]

    def objective(self) -> int:
        """The cost the sort optimized: routed estimate if present, else CNOTs."""
        if self.routed_cost_estimate is not None:
            return self.routed_cost_estimate
        return self.cnot_count


def routed_sequence_cost_estimate(
    sequence: Sequence[Tuple[PauliString, int]], topology: Topology
) -> int:
    """Distance-weighted CNOT estimate of a targeted sequence on a device.

    Sum of the steered per-vertex ladder costs
    (:func:`repro.operators.routed_vertex_cost_vector`) minus the Sec. III-B
    interface savings between consecutive exponentials — the path cost the
    distance-weighted GTSP optimizes.  On all-to-all distances this equals
    :func:`repro.circuits.sequence_cnot_count` exactly.
    """
    if not sequence:
        return 0
    strings = [string for string, _ in sequence]
    targets = [target for _, target in sequence]
    costs = routed_vertex_cost_vector(strings, targets, topology.distance_matrix)
    total = int(costs.sum())
    for (p1, t1), (p2, t2) in zip(sequence, sequence[1:]):
        total -= interface_cnot_reduction(p1, t1, p2, t2)
    return total


def build_sorting_problem(
    rotations: Sequence[PauliRotation],
    topology: Optional[Topology] = None,
    savings: Optional[VertexSavings] = None,
) -> GtspProblem:
    """Build the GTSP instance of Sec. III-B for a list of Pauli rotations.

    Every vertex costs its exponential's CNOTs: ``2 (w - 1)`` for a weight-w
    string, or under a ``topology`` the steered ladder cost
    (:func:`repro.operators.routed_vertex_cost_vector`).  That cost is the
    start weight of the vertex and is folded into each incoming edge, minus
    the interface saving of the pair, so the path cost of a tour equals
    :meth:`SortingResult.objective` of the sequence.  ``savings`` is the
    :func:`vertex_savings` of ``rotations`` when the caller already built
    it.
    """
    rotations = list(rotations)
    if not rotations:
        raise ValueError("cannot build a sorting problem from zero rotations")
    clusters: List[List[SortingVertex]] = []
    for index, rotation in enumerate(rotations):
        support = rotation.string.support
        if not support:
            raise ValueError("identity rotations cannot be sorted into circuits")
        clusters.append([(index, target) for target in support])

    vertices, savings = savings if savings is not None else vertex_savings(rotations)
    strings = [rotations[index].string for index, _ in vertices]
    if topology is None:
        costs = 2 * (np.array([len(string.support) for string in strings]) - 1)
    else:
        costs = routed_vertex_cost_vector(
            strings, [target for _, target in vertices], topology.distance_matrix
        )
    # vertex_savings enumerates vertices in cluster-flattened order, which is
    # exactly the global row order GtspProblem expects.
    return GtspProblem(
        clusters=clusters, weight_matrix=costs[None, :] - savings, start_weights=costs
    )


#: Terms of at most this many strings are ordered exhaustively; larger ones
#: by a TSP heuristic.
EXHAUSTIVE_ORDERING_LIMIT = 5


@dataclass(frozen=True)
class TermBlockOrder:
    """A term-block sequence: string rows, their targets and the CNOT count."""

    rows: np.ndarray
    targets: np.ndarray
    cnot_count: int


@lru_cache(maxsize=None)
def _permutation_table(size: int) -> np.ndarray:
    """Every permutation of ``range(size)`` in ``itertools.permutations`` order."""
    return np.array(list(itertools.permutations(range(size))), dtype=np.intp)


def _order_block(savings: np.ndarray) -> List[int]:
    """Order one term's strings from its diagonal block of the savings matrix.

    Small blocks try every permutation and keep the first maximum of the
    summed consecutive savings; larger ones take a seeded TSP tour with
    weight ``-savings[i, j]``.
    """
    size = savings.shape[0]
    if size <= 1:
        return list(range(size))
    if size <= EXHAUSTIVE_ORDERING_LIMIT:
        table = _permutation_table(size)
        scores = savings[table[:, :-1], table[:, 1:]].sum(axis=1)
        return table[int(np.argmax(scores))].tolist()
    weights = (-savings).tolist()
    return solve_tsp(
        range(size), lambda i, j: weights[i][j], rng=np.random.default_rng(0)
    )


def term_block_order(
    strings: PackedPaulis, term_index: Sequence[int], ordered: bool = True
) -> TermBlockOrder:
    """The prior art's term-block order ([8], [9]; the "GT" column of Table I).

    Strings are grouped by ``term_index`` (ascending, input order inside a
    term).  Every string of a term shares one target: the highest qubit in
    the support of all of them, else each string's own last support qubit.
    Without ``ordered`` the blocks follow one another as they are.  With
    it, each block is first reordered to maximize its internal savings
    (exhaustively up to :data:`EXHAUSTIVE_ORDERING_LIMIT` strings, by
    :func:`repro.optimizers.solve_tsp` beyond it), then the blocks are grouped
    by the target of their first string, groups in ascending target order,
    and each group is chained greedily: next comes the block whose first
    string saves the most after the last string so far, the first such
    block on ties.  All savings come from one
    :func:`repro.operators.interface_reduction_matrix`.  ``rows`` index
    ``strings`` in compiled order; ``cnot_count`` is Σ 2 (w - 1) minus the
    savings between consecutive strings.
    """
    term_index = np.asarray(term_index, dtype=np.int64)
    if len(strings) != term_index.shape[0]:
        raise ValueError("one term index per string is required")
    if not len(strings):
        empty = np.zeros(0, dtype=np.int64)
        return TermBlockOrder(rows=empty, targets=empty, cnot_count=0)

    rows = np.argsort(term_index, kind="stable")
    starts = np.flatnonzero(np.diff(term_index[rows], prepend=-1))
    support = support_matrix(strings)[rows]
    n = support.shape[1]
    last_support = n - 1 - np.argmax(support[:, ::-1], axis=1)
    common = np.logical_and.reduceat(support, starts, axis=0)
    shared = np.where(common.any(axis=1), n - 1 - np.argmax(common[:, ::-1], axis=1), -1)
    shared = np.repeat(shared, np.diff(np.append(starts, len(rows))))
    sorted_targets = np.where(shared >= 0, shared, last_support)
    targets = np.empty_like(sorted_targets)
    targets[rows] = sorted_targets
    savings = interface_reduction_matrix(strings, targets)

    if ordered:
        groups: Dict[int, List[np.ndarray]] = {}
        for block in np.split(rows, starts[1:]):
            block = block[_order_block(savings[np.ix_(block, block)])]
            groups.setdefault(int(targets[block[0]]), []).append(block)
        chained: List[np.ndarray] = []
        for target in sorted(groups):
            blocks = groups[target]
            chained.append(blocks.pop(0))
            while blocks:
                firsts = [block[0] for block in blocks]
                chained.append(blocks.pop(int(np.argmax(savings[chained[-1][-1], firsts]))))
        rows = np.concatenate(chained)

    weights = weight_vector(strings)
    cnot_count = 2 * int((weights - 1).sum()) - int(savings[rows[:-1], rows[1:]].sum())
    return TermBlockOrder(rows=rows, targets=targets[rows], cnot_count=cnot_count)


def result_to_tour(
    rotations: Sequence[PauliRotation], result: "SortingResult"
) -> List[SortingVertex]:
    """Re-express a :class:`SortingResult` as a ``(rotation index, target)`` tour."""
    index_of = {id(rotation): index for index, rotation in enumerate(rotations)}
    return [(index_of[id(rotation)], target) for rotation, target in result.ordered_rotations]


def _finalize_sorting(
    ordered: List[Tuple[PauliRotation, int]],
    topology: Optional[Topology],
    degraded: bool = False,
) -> SortingResult:
    """Package a targeted sequence with its all-to-all and routed costs."""
    sequence = [(rotation.string, target) for rotation, target in ordered]
    return SortingResult(
        ordered_rotations=ordered,
        cnot_count=sequence_cnot_count(sequence),
        routed_cost_estimate=(
            None if topology is None else routed_sequence_cost_estimate(sequence, topology)
        ),
        degraded=degraded,
    )


def sort_seed_tours(
    rotations: Sequence[PauliRotation],
    topology: Optional[Topology] = None,
    savings: Optional[VertexSavings] = None,
) -> List[List[SortingVertex]]:
    """The seed tours of :func:`advanced_sort`, in tie-breaking order.

    The greedy walk (:func:`greedy_sort`), then the term-block order
    (:func:`term_block_order`) chained, then unchained.
    """
    rotations = list(rotations)
    greedy = greedy_sort(rotations, topology=topology, savings=savings)
    strings = PackedPaulis.from_strings(rotation.string for rotation in rotations)
    term_index = [rotation.term_index for rotation in rotations]
    blocks = [term_block_order(strings, term_index, ordered) for ordered in (True, False)]
    return [result_to_tour(rotations, greedy)] + [
        list(zip(block.rows.tolist(), block.targets.tolist())) for block in blocks
    ]


def advanced_sort(
    rotations: Sequence[PauliRotation],
    topology: Optional[Topology] = None,
    max_rounds: Optional[int] = None,
) -> SortingResult:
    """Order rotations and pick per-rotation targets to minimize the CNOT count.

    Runs :func:`repro.optimizers.solve_gtsp` on the
    :func:`build_sorting_problem` instance from the seed tours of
    :func:`sort_seed_tours`, so the result is never worse than any seed.
    With a ``topology`` the search minimizes the distance-weighted routed
    cost instead of the all-to-all CNOT count; either way the search's path
    cost is the result's :meth:`~SortingResult.objective`.  ``max_rounds`` is
    the anytime budget of the search; a truncated search marks the result
    ``degraded=True``.
    """
    rotations = list(rotations)
    if not rotations:
        return SortingResult(
            ordered_rotations=[],
            cnot_count=0,
            routed_cost_estimate=None if topology is None else 0,
        )
    savings = vertex_savings(rotations)
    seed_tours = sort_seed_tours(rotations, topology=topology, savings=savings)
    problem = build_sorting_problem(rotations, topology=topology, savings=savings)
    solution = solve_gtsp(
        problem,
        [[(index, (index, target)) for index, target in tour] for tour in seed_tours],
        max_rounds=max_rounds,
    )
    ordered = [(rotations[index], target) for _, (index, target) in solution.tour]
    return _finalize_sorting(ordered, topology, degraded=solution.degraded)


def greedy_walk(
    preference: np.ndarray, vertex_rotation: np.ndarray, start: int
) -> List[int]:
    """Nearest-neighbour path through the GTSP clusters, as vertex rows.

    ``vertex_rotation[row]`` names the rotation of each row; a rotation's
    rows are contiguous.  From ``start``, step to the vertex of a not yet
    visited rotation with the largest ``preference[current, row]`` until
    every rotation is visited.  Ties go to the lowest row, as ``argmax``
    returns the first maximum.
    """
    n_rows = len(vertex_rotation)
    stops = np.flatnonzero(np.diff(vertex_rotation)) + 1
    run_start = [0, *stops.tolist()]
    run_stop = [*stops.tolist(), n_rows]
    run_of_row = np.repeat(
        np.arange(len(run_start)), np.subtract(run_stop, run_start)
    ).tolist()
    alive = np.ones(n_rows, dtype=bool)
    floor = np.iinfo(preference.dtype).min
    path = [start]
    for _ in range(len(run_start) - 1):
        run = run_of_row[path[-1]]
        alive[run_start[run]:run_stop[run]] = False
        path.append(int(np.argmax(np.where(alive, preference[path[-1]], floor))))
    return path


def greedy_sort(
    rotations: Sequence[PauliRotation],
    topology: Optional[Topology] = None,
    savings: Optional[VertexSavings] = None,
) -> SortingResult:
    """Nearest-neighbour construction: the first seed tour of :func:`advanced_sort`.

    Starting from the first rotation (with its default target), the next
    rotation/target pair is always the one with the largest interface
    cancellation — or, under a ``topology``, the smallest distance-weighted
    cost (:func:`greedy_walk`).  Also the ablation reference for the GTSP
    search; the Γ search evaluates the same walk on bit-planes
    (:class:`repro.core.gamma_search.GreedySortingCost`).
    ``savings`` is the :func:`vertex_savings` of ``rotations`` when the
    caller already built it.
    """
    rotations = list(rotations)
    if not rotations:
        return SortingResult(
            ordered_rotations=[],
            cnot_count=0,
            routed_cost_estimate=None if topology is None else 0,
        )
    if any(rotation.string.is_identity for rotation in rotations):
        raise ValueError("identity rotations cannot be sorted into circuits")
    vertices, savings = savings if savings is not None else vertex_savings(rotations)
    if topology is None:
        preference = savings  # maximize the interface saving
    else:
        # minimize cost[v] - savings[u, v]; savings is reused, not recomputed
        costs = routed_vertex_cost_vector(
            [rotations[index].string for index, _ in vertices],
            [target for _, target in vertices],
            topology.distance_matrix,
        )
        preference = savings - costs[None, :]
    vertex_rotation = np.array([index for index, _ in vertices], dtype=np.int64)
    # Vertices are enumerated in (rotation index, target) order, so the first
    # rotation's default (last-support) target is the last vertex of its run.
    start = len(rotations[0].string.support) - 1
    ordered = [
        (rotations[vertices[row][0]], vertices[row][1])
        for row in greedy_walk(preference, vertex_rotation, start)
    ]
    return _finalize_sorting(ordered, topology)


def baseline_order_cnot_count(rotations: Sequence[PauliRotation]) -> int:
    """CNOT count of the un-sorted order with default (last-support) targets.

    Used by ablation benchmarks to quantify what the GTSP sorting buys.
    """
    sequence = [
        (rotation.string, rotation.string.support[-1]) for rotation in rotations
    ]
    return sequence_cnot_count(sequence)
