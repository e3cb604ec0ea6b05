"""Simple TSP heuristics: nearest neighbor construction and 2-opt improvement.

The term-block order uses them to order the strings of large excitation
terms (:func:`repro.core.advanced_sorting.term_block_order`).
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence

import numpy as np

Vertex = Hashable

TWO_OPT_MAX_PASSES = 10
TSP_RESTARTS = 3


def tour_length(
    tour: Sequence[Vertex], weight: Callable[[Vertex, Vertex], float], cyclic: bool = True
) -> float:
    """Total weight of a tour (closed cycle by default)."""
    if len(tour) < 2:
        return 0.0
    total = sum(float(weight(a, b)) for a, b in zip(tour, tour[1:]))
    if cyclic:
        total += float(weight(tour[-1], tour[0]))
    return total


def nearest_neighbor_tour(
    vertices: Sequence[Vertex],
    weight: Callable[[Vertex, Vertex], float],
    start: Optional[Vertex] = None,
) -> List[Vertex]:
    """Greedy nearest-neighbor tour construction."""
    if not vertices:
        return []
    remaining = list(vertices)
    if start is None:
        start = remaining[0]
    if start not in remaining:
        raise ValueError("start vertex must be one of the vertices")
    tour = [start]
    remaining.remove(start)
    while remaining:
        last = tour[-1]
        next_vertex = min(remaining, key=lambda v: float(weight(last, v)))
        tour.append(next_vertex)
        remaining.remove(next_vertex)
    return tour


def two_opt(
    tour: Sequence[Vertex],
    weight: Callable[[Vertex, Vertex], float],
) -> List[Vertex]:
    """Improve a closed tour with 2-opt segment reversals until none improves it."""
    tour = list(tour)
    n = len(tour)
    if n < 4:
        return tour
    for _ in range(TWO_OPT_MAX_PASSES):
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                a, b = tour[i], tour[i + 1]
                c, d = tour[j], tour[(j + 1) % n]
                if (j + 1) % n == i:
                    continue
                before = float(weight(a, b)) + float(weight(c, d))
                after = float(weight(a, c)) + float(weight(b, d))
                if after + 1e-12 < before:
                    tour[i + 1:j + 1] = reversed(tour[i + 1:j + 1])
                    improved = True
        if not improved:
            break
    return tour


def solve_tsp(
    vertices: Sequence[Vertex],
    weight: Callable[[Vertex, Vertex], float],
    rng: Optional[np.random.Generator] = None,
) -> List[Vertex]:
    """Nearest-neighbor + 2-opt with a few random restarts; returns the best tour."""
    if not vertices:
        return []
    rng = rng or np.random.default_rng()
    vertices = list(vertices)
    best_tour: Optional[List[Vertex]] = None
    best_length = None
    for restart in range(TSP_RESTARTS):
        start = vertices[int(rng.integers(len(vertices)))] if restart else vertices[0]
        tour = two_opt(nearest_neighbor_tour(vertices, weight, start=start), weight)
        length = tour_length(tour, weight)
        if best_length is None or length < best_length:
            best_tour, best_length = tour, length
    return best_tour
