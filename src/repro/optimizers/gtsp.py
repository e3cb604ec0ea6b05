"""Deterministic local search for the generalized traveling salesman problem (GTSP).

The paper's *advanced sorting* maps Pauli-string ordering with per-string
target-qubit freedom onto the GTSP: vertices are ``(string, target)`` pairs
grouped into one cluster per string, and the tour must visit exactly one
vertex per cluster at the least total cost.  The paper solves it with a
genetic algorithm.  This module departs from that on purpose: in the memetic
GTSP of Gutin and Karapetyan (Natural Computing 9, 2010) the local search
does the work, and on the compiler's instances a population added nothing
over its best seed but time and a random stream.  So :func:`solve_gtsp`
keeps only the local search, run from caller-supplied seed tours, and draws
no random numbers.

The compiled cost is a *path*, so the search minimizes the path cost: the
start weight of the first vertex plus the weights of consecutive edges.
From each seed it alternates two moves until a round improves nothing:

* **cluster optimization** — an exact dynamic program (DP) that, for the
  fixed cluster order, picks the cheapest vertex in every cluster;
* **Or-opt** — a first-improvement pass that moves a run of 1–3 consecutive
  clusters, with their vertices, to its cheapest other position.

Every accepted Or-opt move and every kept round strictly lowers the path
cost, so on integer weights (the compiler's CNOT counts) the search ends,
and the result is never worse than any seed.  The cheapest result wins, the
earliest seed on ties.  Three shortcuts skip work whose outcome is known:

* a kept round ends on an Or-opt fixpoint, so when the next round's DP
  returns the same path the search stops without scanning it again;
* a seed tour equal to an earlier seed is not searched again; it counts
  that seed's rounds and degraded flag once more, as a second search would;
* after an Or-opt move the scan resumes instead of starting over at run 1
  (Bentley's don't-look bits, ORSA J. Computing 4, 1992, made exact): the
  runs before the move's earliest new edge are re-priced against the three
  new gaps only, and the full scan resumes from there, so the moves are
  those of a scan that starts over.

Edge weights live in one dense float64 buffer of shape ``(V + 3, V + 3)``:
the ``(V, V)`` weight matrix indexed by global vertex row (clusters
flattened in order), a sentinel row and column of ``+inf``, and two virtual
vertices that turn the path ends into ordinary edges: *begin*, whose edge
to a vertex is that vertex's start weight, and *end*, which every vertex
reaches at zero cost.  The DP pads every cluster to the widest one with the
sentinel vertex, so one fancy index gathers all of its ``(K, K)`` layer
steps, and each layer then costs two numpy calls.  Or-opt scores a block
of run starts at every run length at once: the cost of entering each gap
through a run's head is gathered once for the block, and the cost of
leaving it through a run's tail once per run end; the block's index arrays
are cached per path length and block.  Weights must be finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

Vertex = Hashable
#: A tour visits clusters in the listed order, using the chosen vertex in each.
Tour = Tuple[Tuple[int, Vertex], ...]

#: Or-opt moves runs of up to this many consecutive clusters.
OR_OPT_MAX_RUN = 3
#: Or-opt evaluates this many run starts at once.
OR_OPT_BLOCK = 16


@dataclass
class GtspProblem:
    """A GTSP instance on the path objective.

    Parameters
    ----------
    clusters:
        Non-empty list of non-empty vertex lists; exactly one vertex per
        cluster is visited.
    weight_matrix:
        Dense edge-cost matrix indexed by global vertex rows, clusters
        flattened in order (cluster 0's vertices first).  Every weight must
        be finite; NaN or infinite entries raise ``ValueError``.
    start_weights:
        Optional cost of starting the path at each vertex (zero when
        omitted), by the same global rows.  The path cost of a tour is the
        start weight of its first vertex plus the weights of its
        consecutive edges.
    """

    clusters: Sequence[Sequence[Vertex]]
    weight_matrix: np.ndarray
    start_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("GTSP instance needs at least one cluster")
        if any(len(cluster) == 0 for cluster in self.clusters):
            raise ValueError("every cluster must contain at least one vertex")

        n = sum(len(cluster) for cluster in self.clusters)
        width = max(len(cluster) for cluster in self.clusters)
        # _padded_rows[c, i]: global row of vertex i of cluster c, padded to
        # the widest cluster with the sentinel row n of the weight buffer.
        self._padded_rows = np.full((len(self.clusters), width), n, dtype=np.intp)
        self._row_in_cluster: List[Dict[Vertex, int]] = []
        self._cluster_of_row = np.repeat(
            np.arange(len(self.clusters)), [len(cluster) for cluster in self.clusters]
        )
        self._vertex_of_row = [
            (index, vertex) for index, cluster in enumerate(self.clusters) for vertex in cluster
        ]
        row = 0
        for index, cluster in enumerate(self.clusters):
            self._padded_rows[index, :len(cluster)] = range(row, row + len(cluster))
            self._row_in_cluster.append(
                {vertex: row + position for position, vertex in enumerate(cluster)}
            )
            row += len(cluster)

        matrix = np.asarray(self.weight_matrix, dtype=np.float64)
        if matrix.shape != (n, n):
            raise ValueError(
                f"weight_matrix must be ({n}, {n}) for {n} vertices, got {matrix.shape}"
            )
        start = np.zeros(n) if self.start_weights is None else np.asarray(
            self.start_weights, dtype=np.float64
        )
        if start.shape != (n,):
            raise ValueError(f"start_weights must be ({n},) for {n} vertices, got {start.shape}")
        if not (np.isfinite(matrix).all() and np.isfinite(start).all()):
            raise ValueError("GTSP weights must be finite (got NaN or infinity)")
        # Copied into the buffer on ingest: later in-place mutation of the
        # caller's arrays cannot reach the solver.
        self._begin, self._end = n + 1, n + 2
        self._weights = np.full((n + 3, n + 3), np.inf)
        self._weights[:n, :n] = matrix
        self._weights[self._begin, :n] = start
        self._weights[:n, self._end] = 0.0

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_vertices(self) -> int:
        return len(self._vertex_of_row)

    @property
    def matrix(self) -> np.ndarray:
        """The dense float64 weight matrix: a view of the padded buffer."""
        n = self.n_vertices
        return self._weights[:n, :n]

    def tour_cost(self, tour: Sequence[Tuple[int, Vertex]]) -> float:
        """Path cost of the tour: its first vertex's start weight plus its edges."""
        return self._path_cost(self.tour_rows(tour))

    def tour_rows(self, tour: Sequence[Tuple[int, Vertex]]) -> List[int]:
        """Global rows of a ``(cluster, vertex)`` tour that visits every cluster once."""
        if sorted(cluster for cluster, _ in tour) != list(range(self.n_clusters)):
            raise ValueError("tour must visit every cluster exactly once")
        rows: List[int] = []
        for cluster, vertex in tour:
            row = self._row_in_cluster[cluster].get(vertex)
            if row is None:
                raise ValueError(f"vertex {vertex!r} is not in cluster {cluster}")
            rows.append(row)
        return rows

    def _tour(self, rows: Sequence[int]) -> Tour:
        return tuple(self._vertex_of_row[row] for row in rows)

    def _path_cost(self, rows: Sequence[int]) -> float:
        """Start weight plus edge weights, added left to right along the path."""
        rows = np.asarray(rows, dtype=np.intp)
        terms = np.empty(len(rows))
        terms[0] = self._weights[self._begin, rows[0]]
        terms[1:] = self._weights[rows[:-1], rows[1:]]
        return float(np.add.accumulate(terms)[-1])


@dataclass
class GtspResult:
    """Best tour found by the solver, with its path cost.

    ``rounds`` counts the improving rounds the search kept, over all seeds.
    ``degraded`` is True when a ``max_rounds`` budget stopped a seed's
    search while its next round would still have improved it: the tour is
    the best one found within the budget (anytime semantics).
    """

    tour: Tour
    cost: float
    rounds: int
    degraded: bool = False


def _optimize_vertices(problem: GtspProblem, rows: np.ndarray) -> np.ndarray:
    """Exact DP: the cheapest vertex of every cluster for the cluster order of ``rows``.

    ``costs[k]`` is the cheapest path from the virtual start to vertex
    ``k`` of the current layer; each layer is one ``(K, K)`` step gathered
    from the padded buffer.  A layer costs two numpy calls: the costs are
    added into its gathered step in place, and the step's column minima are
    the next costs.  The steps then hold every path cost, so one ``argmin``
    over all of them finds each vertex's parent after the loop.  Sentinel
    vertices cost ``+inf`` and never win, and ties go to the first vertex of
    a cluster.
    """
    layers = problem._padded_rows[problem._cluster_of_row[rows]]     # (m, K)
    # steps[l, j, k]: weight from vertex j of layer l to vertex k of layer l + 1.
    steps = problem._weights[layers[:-1, :, None], layers[1:, None, :]]
    costs = problem._weights[problem._begin, layers[0]]
    for step in steps:
        np.add(step, costs[:, None], out=step)
        costs = step.min(axis=0)
    choice = [int(costs.argmin())]
    for parents in reversed(steps.argmin(axis=1).tolist()):
        choice.append(parents[choice[-1]])
    return layers[np.arange(len(layers)), choice[::-1]]


@lru_cache(maxsize=128)
def _run_indices(m: int, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, ends, fits)`` of the runs from ``lo .. hi - 1`` on ``m`` clusters.

    ``ends[s, l]`` is the last position of the run of length ``l + 1`` from
    ``starts[s]``, clipped to the path; ``fits`` marks the runs that do not
    cross the path end.  Static per ``(m, lo, hi)``, so built once and
    returned read-only.
    """
    starts = np.arange(lo, hi)
    ends = starts[:, None] + np.arange(min(OR_OPT_MAX_RUN, m - 1))
    fits = ends <= m
    ends = np.minimum(ends, m)
    for array in (starts, ends, fits):
        array.flags.writeable = False
    return starts, ends, fits


@lru_cache(maxsize=128)
def _spanned_gaps(m: int, lo: int, hi: int) -> np.ndarray:
    """``[s, l, g]``: the run of :func:`_run_indices` spans gap ``g`` (read-only)."""
    starts, ends, _ = _run_indices(m, lo, hi)
    gaps = np.arange(m + 1)
    spanned = (gaps >= starts[:, None, None] - 1) & (gaps <= ends[:, :, None])
    spanned.flags.writeable = False
    return spanned


def _first_move(
    weights: np.ndarray, path: np.ndarray, lo: int, hi: int
) -> Optional[Tuple[int, int, int]]:
    """First improving Or-opt move ``(i, length, gap)`` with ``lo <= i < hi``.

    ``path`` runs from the virtual begin to the virtual end vertex, so every
    gap ``g`` (between ``path[g]`` and ``path[g + 1]``) is an ordinary edge.
    Moves are ranked by run start ``i``, then run length; each run goes to
    its cheapest gap, the first one on ties, outside the gaps ``i - 1 ..
    i + length - 1`` it spans.  Every candidate is evaluated at once: a run
    enters a gap through its head ``path[i]`` whatever its length, so the
    ``(run start, gap)`` entry costs are gathered once for all lengths, and
    the exit costs once per run end.  The index arrays and the spanned-gap
    mask are built once per ``(m, lo, hi)``.
    """
    m = len(path) - 2
    if m < 2:
        return None
    starts, ends, fits = _run_indices(m, lo, hi)
    edges = weights[path[:-1], path[1:]]
    enter = weights[path[None, :-1], path[starts, None]]                 # (S, m + 1)
    leave = weights[path[ends, None], path[None, None, 1:]]              # (S, L, m + 1)
    insertion = (enter[:, None, :] + leave) - edges
    insertion[_spanned_gaps(m, lo, hi)] = np.inf
    hit = _first_improving_run(weights, path, edges, ends, fits, insertion)
    if hit is None:
        return None
    k, length = hit
    return lo + k, length + 1, int(insertion[k, length].argmin())


def _first_improving_run(
    weights: np.ndarray,
    path: np.ndarray,
    edges: np.ndarray,
    ends: np.ndarray,
    fits: np.ndarray,
    insertion: np.ndarray,
) -> Optional[Tuple[int, int]]:
    """``(start index, length index)`` of the first run whose cheapest gap improves.

    ``insertion[s, l, g]`` prices the run of ``(s, l)`` in its ``g``-th
    candidate gap; the run's removal saving is priced here, in the one
    float order both scans share.  The minimum is the entry at the first
    cheapest gap, bit for bit.
    """
    starts = ends[:, 0]
    removal = (
        weights[path[starts - 1, None], path[ends + 1]] - edges[starts - 1, None] - edges[ends]
    )
    hits = np.flatnonzero(fits & (removal + insertion.min(axis=2) < 0))
    if not hits.size:
        return None
    return divmod(int(hits[0]), ends.shape[1])


def _first_move_through(
    weights: np.ndarray, path: np.ndarray, hi: int, gaps: np.ndarray
) -> Optional[Tuple[int, int, int]]:
    """First Or-opt move with run start ``1 <= i < hi`` that improves through ``gaps``.

    For runs that span none of ``gaps`` and that no other gap improves, as
    after a move the runs :func:`_or_opt` does not scan again.  Such a run
    improves iff one of ``gaps`` does: its entries are the very floats
    :func:`_first_move` adds, and a float sum is monotone in each term.
    Its cheapest gap is then the first cheapest of all its gaps, which one
    row of :func:`_first_move`'s insertion costs finds.
    """
    starts, ends, fits = _run_indices(len(path) - 2, 1, hi)
    edges = weights[path[:-1], path[1:]]
    enter = weights[path[None, gaps], path[starts, None]]                 # (S, G)
    leave = weights[path[ends, None], path[None, None, gaps + 1]]         # (S, L, G)
    insertion = (enter[:, None, :] + leave) - edges[gaps]
    hit = _first_improving_run(weights, path, edges, ends, fits, insertion)
    if hit is None:
        return None
    k, length = hit
    i, end = 1 + k, int(ends[k, length])
    row = (weights[path[:-1], path[i]] + weights[path[end], path[1:]]) - edges
    row[i - 1:end + 1] = np.inf
    return i, length + 1, int(row.argmin())


def _move_run(path: np.ndarray, move: Tuple[int, int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """``path`` with the run of ``move`` in its gap, and the gaps of the three new edges."""
    i, length, gap = move
    run = path[i:i + length]
    rest = np.concatenate((path[:i], path[i + length:]))
    if gap < i:
        changed = (gap, gap + length, i + length - 1)
        at = gap + 1
    else:
        changed = (i - 1, gap - length, gap)
        at = gap + 1 - length
    return np.concatenate((rest[:at], run, rest[at:])), np.array(changed, dtype=np.intp)


def _or_opt(problem: GtspProblem, rows: np.ndarray) -> np.ndarray:
    """One first-improvement Or-opt pass over the path ``rows``.

    Applies the first improving move of :func:`_first_move`, in its
    ranking, until no run of 1..:data:`OR_OPT_MAX_RUN` clusters has a gap
    that strictly lowers the path cost.  Run starts are scanned in blocks
    of :data:`OR_OPT_BLOCK`, each evaluated at once.

    After a move the scan resumes instead of starting over (Bentley's
    don't-look bits, made exact).  A move replaces three edges, the
    earliest at gap ``min(gap, i - 1)``.  Every run that starts before the
    block of the first run touching that gap spans no new edge and was not
    improving before the move, so it can improve only through one of the
    three new gaps: :func:`_first_move_through` re-prices those runs
    against them alone.  Only if none improves does the block scan resume,
    from that block.  The moves, and so the path, are those of a scan that
    starts over at run 1 after every move.
    """
    weights = problem._weights
    path = np.concatenate(([problem._begin], rows, [problem._end]))
    m = len(rows)
    longest = min(OR_OPT_MAX_RUN, m - 1)
    lo = 1
    while lo <= m:
        move = _first_move(weights, path, lo, min(lo + OR_OPT_BLOCK, m + 1))
        if move is None:
            lo += OR_OPT_BLOCK
        while move is not None:
            path, changed = _move_run(path, move)
            i, _, gap = move
            lo = 1 + max(min(gap, i - 1) - longest, 0) // OR_OPT_BLOCK * OR_OPT_BLOCK
            move = _first_move_through(weights, path, lo, changed) if lo > 1 else None
    return path[1:-1]


def _descend(
    problem: GtspProblem, rows: np.ndarray, max_rounds: Optional[int]
) -> Tuple[np.ndarray, float, int, bool]:
    """Local search from one seed: ``(rows, cost, rounds kept, degraded)``.

    After a kept round ``rows`` is an Or-opt fixpoint, so a round whose DP
    leaves ``rows`` unchanged cannot improve and ends the search unscanned.
    """
    cost = problem._path_cost(rows)
    rounds = 0
    while True:
        optimized = _optimize_vertices(problem, rows)
        if rounds and np.array_equal(optimized, rows):
            return rows, cost, rounds, False
        candidate = _or_opt(problem, optimized)
        candidate_cost = problem._path_cost(candidate)
        if not candidate_cost < cost:
            return rows, cost, rounds, False
        if max_rounds is not None and rounds >= max_rounds:
            return rows, cost, rounds, True
        rows, cost, rounds = candidate, candidate_cost, rounds + 1


def solve_gtsp(
    problem: GtspProblem,
    initial_tours: Sequence[Sequence[Tuple[int, Vertex]]],
    max_rounds: Optional[int] = None,
) -> GtspResult:
    """Improve every seed tour by local search and return the cheapest path.

    Each round is a cluster-optimization DP followed by an Or-opt pass (see
    the module docstring); a seed's search stops at the first round that
    does not strictly lower its path cost.  The result is deterministic and
    never costs more than any seed; ties go to the earliest seed.  A seed
    whose rows repeat an earlier seed's is not searched again: it counts
    that seed's rounds and degraded flag once more.

    ``max_rounds`` is an anytime budget: keep at most that many improving
    rounds per seed.  A seed stopped by the budget while its next round
    would still improve it marks the result ``degraded=True``; a budget at
    or above the rounds the search actually uses changes nothing.
    """
    if max_rounds is not None and max_rounds < 0:
        raise ValueError("max_rounds must be None or non-negative")
    if not initial_tours:
        raise ValueError("solve_gtsp needs at least one seed tour")
    best: Optional[Tuple[np.ndarray, float]] = None
    rounds, degraded = 0, False
    searched: Dict[Tuple[int, ...], Tuple[np.ndarray, float, int, bool]] = {}
    for tour in initial_tours:
        seed = tuple(problem.tour_rows(tour))
        if seed not in searched:
            searched[seed] = _descend(problem, np.array(seed, dtype=np.intp), max_rounds)
        rows, cost, used, cut = searched[seed]
        rounds += used
        degraded = degraded or cut
        if best is None or cost < best[1]:
            best = (rows, cost)
    return GtspResult(
        tour=problem._tour(best[0].tolist()), cost=best[1], rounds=rounds, degraded=degraded
    )


def brute_force_gtsp(
    problem: GtspProblem, order: Optional[Sequence[int]] = None
) -> GtspResult:
    """Exact minimum path by exhaustive enumeration (tiny instances only).

    Every cluster order (or only ``order`` when given) with every vertex
    choice; the first minimum wins.
    """
    n = problem.n_clusters
    if n > 7:
        raise ValueError("brute force is limited to at most 7 clusters")
    orders = [tuple(order)] if order is not None else itertools.permutations(range(n))
    best_tour: Optional[Tour] = None
    best_cost = None
    for cluster_order in orders:
        for choice in itertools.product(*[problem.clusters[c] for c in cluster_order]):
            tour = tuple(zip(cluster_order, choice))
            cost = problem.tour_cost(tour)
            if best_cost is None or cost < best_cost:
                best_cost, best_tour = cost, tour
    return GtspResult(tour=best_tour, cost=float(best_cost), rounds=0)
