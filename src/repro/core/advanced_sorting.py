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

The sorts take :class:`~repro.core.terms_to_paulis.RotationPlanes` and read
only their packed strings: the seeds, the GTSP instance and the final count
share the one :class:`~repro.operators.SameTargetSavings` memoized on them,
and :class:`PauliRotation` items are unpacked only for the result.

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

from repro.circuits import sequence_cnot_count
from repro.core.terms_to_paulis import PauliRotation, RotationPlanes
from repro.hardware.topology import Topology
from repro.operators import (
    PackedPaulis,
    PauliString,
    routed_vertex_cost_vector,
    support_matrix,
    weight_vector,
)
from repro.optimizers import GtspProblem, solve_gtsp, solve_tsp

#: A GTSP vertex: (rotation index, target qubit).
SortingVertex = Tuple[int, int]


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


def build_sorting_problem(
    rotations: RotationPlanes,
    topology: Optional[Topology] = None,
) -> GtspProblem:
    """Build the GTSP instance of Sec. III-B for a set of Pauli rotations.

    Cluster ``i`` holds the vertices ``(i, t)`` of rotation ``i``, one per
    qubit ``t`` of its support, ascending.  Every vertex costs its
    exponential's CNOTs: ``2 (w - 1)`` for a weight-w string, or under a
    ``topology`` the steered ladder cost
    (:func:`repro.operators.routed_vertex_cost_vector`).  That cost is the
    start weight of the vertex and is folded into each incoming edge, minus
    the interface saving of the pair, so the path cost of a tour equals
    :meth:`SortingResult.objective` of the sequence.
    """
    strings = rotations.strings
    if not len(strings):
        raise ValueError("cannot build a sorting problem from zero rotations")
    support = support_matrix(strings)
    if not support.any(axis=1).all():
        raise ValueError("identity rotations cannot be sorted into circuits")
    clusters = [
        [(i, t) for t in np.flatnonzero(row).tolist()] for i, row in enumerate(support)
    ]
    # The vertices in (row, ascending target) order, as the clusters list
    # them: the global row order GtspProblem expects.
    rows, targets = np.nonzero(support)
    if topology is None:
        costs = 2 * (weight_vector(strings)[rows] - 1)
    else:
        costs = routed_vertex_cost_vector(
            strings.take(rows), targets, topology.distance_matrix
        )
    savings = strings.same_target_savings.pairs(rows, targets)
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
    :meth:`repro.operators.SameTargetSavings.pairs` matrix over the strings.
    ``rows`` index ``strings`` in compiled order; ``cnot_count`` is
    Σ 2 (w - 1) minus the savings between consecutive strings.
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
    savings = strings.same_target_savings.pairs(np.arange(len(strings)), targets)

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


def _finalize_sorting(
    rotations: RotationPlanes,
    tour: Sequence[SortingVertex],
    topology: Optional[Topology],
    degraded: bool = False,
) -> SortingResult:
    """Package a targeted tour of the rotations with its all-to-all and routed costs.

    The CNOT count is Σ 2 (w - 1) minus the savings between consecutive
    vertices, read from the strings' memoized
    :class:`~repro.operators.SameTargetSavings`.  The routed estimate swaps
    each exponential's template CNOTs for its steered ladder cost
    (:func:`repro.operators.routed_vertex_cost_vector`) and keeps the same
    savings.  It is the path cost the distance-weighted GTSP optimizes, and
    equals ``cnot_count`` on all-to-all distances.
    """
    strings = rotations.strings
    rows, targets = np.array(tour, dtype=np.intp).reshape(-1, 2).T
    saved = int(np.diagonal(strings.same_target_savings.pairs(rows, targets), 1).sum())
    cnot_count = 2 * int((weight_vector(strings)[rows] - 1).sum()) - saved
    routed = None
    if topology is not None:
        ladders = routed_vertex_cost_vector(
            strings.take(rows), targets, topology.distance_matrix
        )
        routed = int(ladders.sum()) - saved
    return SortingResult(
        ordered_rotations=[(rotations[row], target) for row, target in tour],
        cnot_count=cnot_count,
        routed_cost_estimate=routed,
        degraded=degraded,
    )


def sort_seed_tours(
    rotations: RotationPlanes, topology: Optional[Topology] = None
) -> List[List[SortingVertex]]:
    """The seed tours of :func:`advanced_sort`, in tie-breaking order.

    The greedy walk (:func:`greedy_walk`, as :func:`greedy_sort` takes it),
    then the term-block order (:func:`term_block_order`) chained, then
    unchained.
    """
    strings = rotations.strings
    greedy = greedy_walk(strings, None if topology is None else topology.distance_matrix)
    blocks = [
        term_block_order(strings, rotations.term_index, ordered) for ordered in (True, False)
    ]
    return [list(zip(greedy.rows, greedy.targets))] + [
        list(zip(block.rows.tolist(), block.targets.tolist())) for block in blocks
    ]


def advanced_sort(
    rotations: RotationPlanes,
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
    if not len(rotations):
        return SortingResult(
            ordered_rotations=[],
            cnot_count=0,
            routed_cost_estimate=None if topology is None else 0,
        )
    seed_tours = sort_seed_tours(rotations, topology=topology)
    problem = build_sorting_problem(rotations, topology=topology)
    solution = solve_gtsp(
        problem,
        [[(index, (index, target)) for index, target in tour] for tour in seed_tours],
        max_rounds=max_rounds,
    )
    tour = [vertex for _, vertex in solution.tour]
    return _finalize_sorting(rotations, tour, topology, degraded=solution.degraded)


@dataclass(frozen=True)
class GreedyWalk:
    """A greedy path: string rows, their targets and the path cost."""

    rows: List[int]
    targets: List[int]
    cost: int


def greedy_walk(
    strings: PackedPaulis, distance_matrix: Optional[np.ndarray] = None
) -> GreedyWalk:
    """Nearest-neighbour path through the GTSP clusters of Sec. III-B.

    Vertices are ``(string, target)`` pairs in (string, ascending target)
    order.  The walk starts at the first string's last support qubit and
    visits every string once.  Each step takes the first vertex, in that
    order, of a not yet visited string that maximizes the interface saving
    after the current vertex, or with a ``distance_matrix`` the saving minus
    the vertex's routed ladder cost
    (:func:`repro.operators.routed_vertex_cost_vector`).  Only same-target
    vertices save, so without a distance matrix the walk takes the best
    same-target saving when it is positive and otherwise the lowest
    unvisited string's lowest support qubit.  The savings after the current
    vertex are one :meth:`~repro.operators.SameTargetSavings.row`; no
    vertex-pair matrix is built.  ``cost`` is the path's CNOT count, or its
    routed estimate with a distance matrix.
    """
    m = len(strings)
    if not m:
        return GreedyWalk(rows=[], targets=[], cost=0)
    support = support_matrix(strings)
    if not support.any(axis=1).all():
        raise ValueError("identity rotations cannot be sorted into circuits")
    savings = strings.same_target_savings
    vertex_costs = np.zeros(support.shape, dtype=np.int64)
    if distance_matrix is not None:
        rows, columns = np.nonzero(support)
        vertex_costs[rows, columns] = routed_vertex_cost_vector(
            strings.take(rows), columns, distance_matrix
        )
    # Scores of the open vertices, before any saving.  Closed ones (visited
    # strings, qubits off the support) sit so low that no saving lifts them
    # to an open score.
    closed = -(1 << 40)
    scores = np.where(support, -vertex_costs, closed)
    n = support.shape[1]
    source, target = 0, int(n - 1 - np.argmax(support[0, ::-1]))
    path_rows, path_targets = [source], [target]
    saved = 0
    first = int(scores.argmax())
    for _ in range(m - 1):
        scores[source] = closed
        # Closing a row moves the first maximum only if it held it.
        if source == first // n:
            first = int(scores.argmax())
        # The next vertex is the first maximum of the scores, unless the
        # saving lifts a vertex on the current target at least as high and
        # that vertex comes first.
        gains = scores[:, target] + savings.row(source, target)
        best = int(gains.argmax())
        gain, score = int(gains[best]), int(scores.flat[first])
        if gain > score or (gain == score and best * n + target < first):
            saved += gain - int(scores[best, target])
            source = best
        else:
            source, target = divmod(first, n)
        path_rows.append(source)
        path_targets.append(target)
    if distance_matrix is None:
        cost = 2 * (int(support.sum()) - m) - saved
    else:
        cost = int(vertex_costs[path_rows, path_targets].sum()) - saved
    return GreedyWalk(rows=path_rows, targets=path_targets, cost=cost)


def greedy_sort(
    rotations: RotationPlanes, topology: Optional[Topology] = None
) -> SortingResult:
    """Nearest-neighbour construction: the first seed tour of :func:`advanced_sort`.

    Starting from the first rotation (with its default target), the next
    rotation/target pair is always the one with the largest interface
    cancellation — or, under a ``topology``, the smallest distance-weighted
    cost (:func:`greedy_walk`).  Also the ablation reference for the GTSP
    search; the Γ search scores candidates with the same walk
    (:class:`repro.core.gamma_search.GreedySortingCost`).
    """
    walk = greedy_walk(
        rotations.strings, None if topology is None else topology.distance_matrix
    )
    return _finalize_sorting(rotations, list(zip(walk.rows, walk.targets)), topology)


def baseline_order_cnot_count(rotations: Sequence[PauliRotation]) -> int:
    """CNOT count of the un-sorted order with default (last-support) targets.

    Used by ablation benchmarks to quantify what the GTSP sorting buys.
    """
    sequence = [
        (rotation.string, rotation.string.support[-1]) for rotation in rotations
    ]
    return sequence_cnot_count(sequence)
