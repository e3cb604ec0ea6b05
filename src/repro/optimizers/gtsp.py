"""Genetic algorithm for the generalized traveling salesman problem (GTSP).

The paper's *advanced sorting* maps Pauli-string ordering with per-string
target-qubit freedom onto the GTSP: vertices are ``(string, target)`` pairs
grouped into one cluster per string, and the tour must visit exactly one
vertex per cluster while maximizing the summed CNOT cancellation (equivalently
minimizing its negation).  Following the paper we solve the GTSP with a
genetic algorithm in the style of Silberholz and Golden: ordered crossover on
the cluster permutation, per-cluster vertex reassignment and swap mutations,
and an exact dynamic-programming "cluster optimization" step that, for a
fixed cluster order, picks the best vertex inside every cluster.

Edge weights live in one dense float64 buffer of shape ``(V + 1, V + 1)``:
the ``(V, V)`` weight matrix indexed by global vertex row (clusters
flattened in order) plus a sentinel row and column of ``+inf``.  Callers
pass the matrix as ``weight_matrix`` (the advanced sorting builds it in one
batched symplectic scan).  Weights must be finite.

The cluster-optimization DP runs on a whole batch of chromosomes at once:
every cluster is padded to the widest cluster ``K`` with the sentinel
vertex, so one fancy index gathers every layer's ``(B, K, K)`` step and
each layer is one reduction over the batch; tour costs are one gather per
batch.  The solver defers a generation's optimizations to one batch after
all its children are bred.  That changes no result: the DP draws nothing
from the rng and selection reads only the previous generation's costs, so
every draw and every chromosome is the same as optimizing each child as
soon as it is made.  Every kernel reproduces the scalar implementation bit
for bit: candidate costs are single additions of the same float64 pairs,
padded vertices come last and cost ``+inf`` so the first-minimum
``argmin`` lands on the same real vertex, and tour costs accumulate left to
right in tour order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

Vertex = Hashable
#: A tour visits clusters in the listed order, using the chosen vertex in each.
Tour = Tuple[Tuple[int, Vertex], ...]


@dataclass
class GtspProblem:
    """A GTSP instance.

    Parameters
    ----------
    clusters:
        Non-empty list of non-empty vertex lists; exactly one vertex per
        cluster is visited.
    weight_matrix:
        Dense edge-cost matrix indexed by global vertex rows, clusters
        flattened in order (cluster 0's vertices first).  The tour cost is
        the sum of consecutive edge costs around the closed cycle; the
        solver minimizes it.  Every weight must be finite; NaN or infinite
        entries raise ``ValueError``.
    """

    clusters: Sequence[Sequence[Vertex]]
    weight_matrix: np.ndarray

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
        if not np.isfinite(matrix).all():
            raise ValueError("GTSP weights must be finite (got NaN or infinity)")
        # Copied into the buffer on ingest: later in-place mutation of the
        # caller's array cannot reach the solver.
        self._weights = np.full((n + 1, n + 1), np.inf)
        self._weights[:n, :n] = matrix

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_vertices(self) -> int:
        return self._weights.shape[0] - 1

    @property
    def matrix(self) -> np.ndarray:
        """The dense float64 weight matrix: a view of the padded buffer."""
        n = self.n_vertices
        return self._weights[:n, :n]

    def tour_cost(self, tour: Sequence[Tuple[int, Vertex]]) -> float:
        """Cost of the closed tour (single-cluster tours cost zero)."""
        if sorted(c for c, _ in tour) != list(range(self.n_clusters)):
            raise ValueError("tour must visit every cluster exactly once")
        return self._rows_costs(np.array([self.tour_rows(tour)], dtype=np.intp))[0]

    def tour_rows(self, tour: Sequence[Tuple[int, Vertex]]) -> List[int]:
        """Global rows of a ``(cluster, vertex)`` tour."""
        rows: List[int] = []
        for cluster, vertex in tour:
            row = self._row_in_cluster[cluster].get(vertex)
            if row is None:
                raise ValueError(f"vertex {vertex!r} is not in cluster {cluster}")
            rows.append(row)
        return rows

    def _rows_costs(self, rows: np.ndarray) -> List[float]:
        """Closed-cycle costs of tours given as a ``(B, m)`` array of global rows.

        One gather of every tour edge, then a sequential ``np.add.accumulate``
        from ``0.0`` along each tour: the edge costs are added left to right
        in tour order, so each result is bit-identical to the scalar loop.
        """
        if rows.shape[1] <= 1:
            return [0.0] * rows.shape[0]
        edges = np.zeros((rows.shape[0], rows.shape[1] + 1))
        edges[:, 1:] = self._weights[rows, np.roll(rows, -1, axis=1)]
        return np.add.accumulate(edges, axis=1)[:, -1].tolist()


@dataclass
class GtspResult:
    """Best tour found by the solver.

    ``generations`` is the number of generations actually evolved; when a
    ``max_generations`` budget stopped the search early, ``degraded`` is True
    and the tour is the best individual seen so far (anytime semantics).
    """

    tour: Tour
    cost: float
    generations: int
    degraded: bool = False


class _Chromosome:
    """Cluster permutation plus a vertex choice per cluster."""

    __slots__ = ("order", "choices")

    def __init__(self, order: List[int], choices: List[int]):
        self.order = order          # permutation of cluster indices
        self.choices = choices      # choices[c] = vertex index inside cluster c

    def tour(self, problem: GtspProblem) -> Tour:
        return tuple(
            (cluster, problem.clusters[cluster][self.choices[cluster]])
            for cluster in self.order
        )


def _tour_costs(chromosomes: Sequence[_Chromosome], problem: GtspProblem) -> List[float]:
    """Closed-tour costs of a batch of chromosomes (see ``_rows_costs``)."""
    if not chromosomes:
        return []
    orders = np.array([chromosome.order for chromosome in chromosomes], dtype=np.intp)
    choices = np.array([chromosome.choices for chromosome in chromosomes], dtype=np.intp)
    rows = problem._padded_rows[orders, np.take_along_axis(choices, orders, axis=1)]
    return problem._rows_costs(rows)


def _random_chromosome(problem: GtspProblem, rng: np.random.Generator) -> _Chromosome:
    order = list(rng.permutation(problem.n_clusters))
    choices = [int(rng.integers(len(cluster))) for cluster in problem.clusters]
    return _Chromosome([int(c) for c in order], choices)


def _ordered_crossover(
    parent_a: _Chromosome, parent_b: _Chromosome, rng: np.random.Generator
) -> _Chromosome:
    """Ordered crossover (OX) on the cluster permutation; vertex choices mix uniformly."""
    n = len(parent_a.order)
    if n == 1:
        return _Chromosome(list(parent_a.order), list(parent_a.choices))
    cut_a, cut_b = sorted(rng.choice(n, size=2, replace=False))
    segment = parent_a.order[cut_a:cut_b + 1]
    in_segment = set(segment)
    remainder = [c for c in parent_b.order if c not in in_segment]
    order = remainder[:cut_a] + segment + remainder[cut_a:]
    # One vector draw yields the same doubles as one scalar draw per cluster.
    coins = rng.random(len(parent_a.choices)).tolist()
    choices = [
        a if coin < 0.5 else b
        for coin, a, b in zip(coins, parent_a.choices, parent_b.choices)
    ]
    return _Chromosome(order, choices)


def _mutate(
    chromosome: _Chromosome,
    problem: GtspProblem,
    rng: np.random.Generator,
    mutation_rate: float,
) -> None:
    n = problem.n_clusters
    if n >= 2 and rng.random() < mutation_rate:
        i, j = rng.choice(n, size=2, replace=False)
        chromosome.order[i], chromosome.order[j] = chromosome.order[j], chromosome.order[i]
    if rng.random() < mutation_rate:
        cluster = int(rng.integers(n))
        chromosome.choices[cluster] = int(rng.integers(len(problem.clusters[cluster])))
    # Occasional 2-opt style segment reversal.
    if n >= 3 and rng.random() < mutation_rate:
        i, j = sorted(rng.choice(n, size=2, replace=False))
        chromosome.order[i:j + 1] = reversed(chromosome.order[i:j + 1])


def _optimize_clusters(
    chromosomes: Sequence[_Chromosome], problem: GtspProblem
) -> None:
    """Exact DP choosing the best vertex per cluster, for a batch of chromosomes.

    For each chromosome's fixed cluster order and every candidate start
    vertex in its first cluster, a forward dynamic program computes the
    cheapest path through the remaining clusters and closes the cycle; the
    overall best assignment is written back into the chromosome's choices.

    Clusters are padded to the widest cluster ``K`` with the ``+inf``
    sentinel vertex, so one fancy index gathers the layer steps of all ``B``
    chromosomes and each layer is one ``(B, K, K, K)`` reduction over its
    last, contiguous axis (the previous layer's vertex).  Each candidate
    cost is a single addition of the same float64 pair the scalar DP added;
    padded vertices come last and never win against a finite cost, so every
    first-minimum ``argmin`` picks the same real vertex and the assignment
    is bit-identical to optimizing each chromosome alone with the scalar DP.
    """
    m = problem.n_clusters
    if m == 1 or not chromosomes:
        return
    weights = problem._weights
    orders = np.array([chromosome.order for chromosome in chromosomes], dtype=np.intp)
    rows = problem._padded_rows[orders]                 # (B, m, K)
    # steps[b, l, k, j]: weight from vertex j of layer l to vertex k of l + 1.
    steps = weights[rows[:, :-1, None, :], rows[:, 1:, :, None]]

    # costs[b, s, k]: best cost from start vertex s to vertex k of the layer.
    costs = steps[:, 0].transpose(0, 2, 1)
    # Flat offset of every (b, s, k) row of a layer's candidates.
    offsets = np.arange(costs.size).reshape(costs.shape) * costs.shape[2]
    parents: List[np.ndarray] = []
    for layer in range(1, m - 1):
        candidates = costs[:, :, None, :] + steps[:, layer, None]
        best = candidates.argmin(axis=3)
        parents.append(best)
        # The value at argmin's (first-minimum) index is the minimum.
        costs = candidates.take(offsets + best)
    # closing[b, s, k] adds the edge from last-layer vertex k back to start s.
    closing = costs + weights[rows[:, -1, None, :], rows[:, 0, :, None]]
    best_last = closing.argmin(axis=2)
    starts = closing.min(axis=2).argmin(axis=1)

    batch = np.arange(len(chromosomes))
    assignment = np.empty((len(chromosomes), m), dtype=np.intp)
    assignment[:, 0] = starts
    k = best_last[batch, starts]
    for layer in range(m - 1, 0, -1):
        assignment[:, layer] = k
        if layer > 1:
            k = parents[layer - 2][batch, starts, k]

    choices = np.empty_like(assignment)
    choices[batch[:, None], orders] = assignment
    for chromosome, row in zip(chromosomes, choices.tolist()):
        chromosome.choices[:] = row


def _chromosome_from_tour(
    problem: GtspProblem, tour: Sequence[Tuple[int, Vertex]]
) -> _Chromosome:
    """Build a chromosome from an explicit ``(cluster, vertex)`` tour."""
    if sorted(cluster for cluster, _ in tour) != list(range(problem.n_clusters)):
        raise ValueError("seed tour must visit every cluster exactly once")
    order: List[int] = []
    choices = [0] * problem.n_clusters
    for cluster, vertex in tour:
        vertices = list(problem.clusters[cluster])
        if vertex not in vertices:
            raise ValueError(f"seed tour vertex {vertex!r} is not in cluster {cluster}")
        order.append(int(cluster))
        choices[cluster] = vertices.index(vertex)
    return _Chromosome(order, choices)


def solve_gtsp(
    problem: GtspProblem,
    population_size: int = 40,
    generations: int = 60,
    mutation_rate: float = 0.3,
    elite_fraction: float = 0.2,
    cluster_optimization_rate: float = 0.25,
    rng: Optional[np.random.Generator] = None,
    initial_tours: Optional[Sequence[Sequence[Tuple[int, Vertex]]]] = None,
    max_generations: Optional[int] = None,
) -> GtspResult:
    """Solve a GTSP instance with the genetic algorithm described above.

    ``initial_tours`` seeds the starting population with known-good tours
    (e.g. the greedy nearest-neighbour construction), so the search never
    finishes worse than its best seed.  The random part of the population
    draws the same generator stream with or without seeds.

    ``max_generations`` is an anytime iteration budget: evolve at most this
    many generations even when ``generations`` asks for more, returning the
    best tour so far flagged ``degraded=True``.  The budgeted run consumes
    the same rng stream as a prefix of the unbudgeted one, so the degraded
    result is deterministic for a fixed seed.

    Costs are evaluated incrementally: every chromosome's cost is computed
    exactly once, in one batch per generation after its cluster optimization,
    and carried alongside it instead of re-deriving the whole population's
    costs each generation.  The
    carried values equal a full re-evaluation bit-for-bit (the cost function
    is deterministic), so selection — and hence the returned tour — is
    unchanged for any seed.

    Cluster optimization runs once per generation on every child that drew
    the optimization coin (and once on the whole initial population), after
    the generation is bred.  The DP draws nothing from the rng and
    tournament selection reads only the previous generation's costs, so the
    deferral leaves every draw and every chromosome unchanged.
    """
    rng = rng or np.random.default_rng()
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    if max_generations is not None and max_generations < 0:
        raise ValueError("max_generations must be None or non-negative")
    degraded = max_generations is not None and max_generations < generations
    n_generations = min(max_generations, generations) if max_generations is not None else generations

    population = [_random_chromosome(problem, rng) for _ in range(population_size)]
    if initial_tours:
        seeds = [_chromosome_from_tour(problem, tour) for tour in initial_tours]
        population[: len(seeds)] = seeds[:population_size]
    _optimize_clusters(population, problem)
    costs = _tour_costs(population, problem)

    n_elite = max(1, int(elite_fraction * population_size))
    best_index = min(range(population_size), key=costs.__getitem__)
    best_chromosome, best_cost = population[best_index], costs[best_index]

    for generation in range(n_generations):
        ranked = sorted(range(population_size), key=costs.__getitem__)
        elites = [population[i] for i in ranked[:n_elite]]
        elite_costs = [costs[i] for i in ranked[:n_elite]]
        next_population: List[_Chromosome] = [
            _Chromosome(list(c.order), list(c.choices)) for c in elites
        ]
        optimize: List[_Chromosome] = []
        while len(next_population) < population_size:
            # Tournament selection of two parents.
            contenders = rng.choice(population_size, size=min(4, population_size), replace=False)
            parents = sorted(contenders, key=lambda i: costs[i])[:2]
            child = _ordered_crossover(population[parents[0]], population[parents[1]], rng)
            _mutate(child, problem, rng, mutation_rate)
            if rng.random() < cluster_optimization_rate:
                optimize.append(child)
            next_population.append(child)
        _optimize_clusters(optimize, problem)
        population = next_population
        costs = elite_costs + _tour_costs(population[n_elite:], problem)
        generation_best = min(range(population_size), key=costs.__getitem__)
        if costs[generation_best] < best_cost:
            best_chromosome = population[generation_best]
            best_cost = costs[generation_best]

    # Final polish on the best individual.
    best_chromosome = _Chromosome(list(best_chromosome.order), list(best_chromosome.choices))
    _optimize_clusters([best_chromosome], problem)
    (final_cost,) = _tour_costs([best_chromosome], problem)
    if final_cost < best_cost:
        best_cost = final_cost
    return GtspResult(
        tour=best_chromosome.tour(problem),
        cost=best_cost,
        generations=n_generations,
        degraded=degraded,
    )


def brute_force_gtsp(problem: GtspProblem) -> GtspResult:
    """Exact GTSP solution by exhaustive enumeration (tiny instances only)."""
    import itertools

    n = problem.n_clusters
    if n > 7:
        raise ValueError("brute force is limited to at most 7 clusters")
    best_tour: Optional[Tour] = None
    best_cost = None
    # Fix cluster 0 first in the permutation: tours are closed cycles, so this
    # loses no generality and removes rotational duplicates.
    for permutation in itertools.permutations(range(1, n)):
        order = (0,) + permutation
        for choice in itertools.product(*[range(len(c)) for c in problem.clusters]):
            tour = tuple(
                (cluster, problem.clusters[cluster][choice[cluster]]) for cluster in order
            )
            cost = problem.tour_cost(tour)
            if best_cost is None or cost < best_cost:
                best_cost, best_tour = cost, tour
    return GtspResult(tour=best_tour, cost=float(best_cost), generations=0)
