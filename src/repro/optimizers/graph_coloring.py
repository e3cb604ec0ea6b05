"""Randomized greedy graph vertex coloring.

The hybrid-encoding subroutine of the paper maps the symmetry-preserving
ordering problem onto the graph vertex coloring problem (GVCP) and solves it
with "a randomized, greedy coloring algorithm": vertices are colored greedily
in several random orders, existing colors are reused as much as possible, a
new color is added only when forced, and the best coloring over all orders is
returned.  The quantity ultimately consumed downstream is the *largest color
class* — the biggest set of mutually non-adjacent hybrid terms, all of which
can be compiled in compressed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

Vertex = Hashable

#: An undirected graph as ``vertex -> neighbors``.  Edges may be listed in one
#: direction only, and a neighbor need not be a key.  A networkx graph reads
#: the same way.
Adjacency = Mapping[Vertex, Iterable[Vertex]]


@dataclass
class ColoringResult:
    """A proper vertex coloring of an undirected graph."""

    colors: Dict[Vertex, int]
    n_colors: int

    def color_classes(self) -> List[Set[Vertex]]:
        """Vertices grouped by color, ordered by color index."""
        classes: List[Set[Vertex]] = [set() for _ in range(self.n_colors)]
        for vertex, color in self.colors.items():
            classes[color].add(vertex)
        return classes

    def largest_color_class(self) -> Set[Vertex]:
        """The biggest color class (ties broken by lowest color index)."""
        classes = self.color_classes()
        if not classes:
            return set()
        return max(classes, key=len)


def _undirected(graph: Adjacency) -> Dict[Vertex, Dict[Vertex, None]]:
    """Symmetric adjacency of ``graph``: its keys in order, then unlisted neighbors."""
    adjacency: Dict[Vertex, Dict[Vertex, None]] = {vertex: {} for vertex in graph}
    for vertex in graph:
        for neighbor in graph[vertex]:
            adjacency[vertex][neighbor] = None
            adjacency.setdefault(neighbor, {})[vertex] = None
    return adjacency


def _color_in_order(
    adjacency: Mapping[Vertex, Iterable[Vertex]], order: Sequence[Vertex]
) -> ColoringResult:
    colors: Dict[Vertex, int] = {}
    usage: List[int] = []
    for vertex in order:
        forbidden = {colors[n] for n in adjacency[vertex] if n in colors}
        allowed = [c for c in range(len(usage)) if c not in forbidden]
        if allowed:
            chosen = max(allowed, key=lambda c: (usage[c], -c))
        else:
            chosen = len(usage)
            usage.append(0)
        colors[vertex] = chosen
        usage[chosen] += 1
    return ColoringResult(colors=colors, n_colors=len(usage))


def greedy_coloring(graph: Adjacency, order: Sequence[Vertex]) -> ColoringResult:
    """Color vertices greedily in the given order, reusing colors when possible.

    When several existing colors are admissible the most-used one is chosen,
    biasing towards large color classes, as described in Sec. IV of the paper.
    """
    return _color_in_order(_undirected(graph), order)


def randomized_greedy_coloring(
    graph: Adjacency,
    n_orders: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> ColoringResult:
    """Best greedy coloring over ``n_orders`` random vertex orders.

    "Best" means fewest colors, with the size of the largest color class as a
    tie-break (larger is better), since that is what the hybrid encoding can
    compress.
    """
    if n_orders < 1:
        raise ValueError("n_orders must be at least 1")
    adjacency = _undirected(graph)
    rng = rng or np.random.default_rng()
    vertices = list(adjacency)
    if not vertices:
        return ColoringResult(colors={}, n_colors=0)

    best: Optional[ColoringResult] = None
    for _ in range(n_orders):
        order = list(vertices)
        rng.shuffle(order)
        candidate = _color_in_order(adjacency, order)
        if best is None:
            best = candidate
            continue
        candidate_key = (candidate.n_colors, -len(candidate.largest_color_class()))
        best_key = (best.n_colors, -len(best.largest_color_class()))
        if candidate_key < best_key:
            best = candidate
    return best


def is_proper_coloring(graph: Adjacency, colors: Mapping[Vertex, int]) -> bool:
    """True if no edge connects two vertices of the same color."""
    return all(colors[u] != colors[v] for u in graph for v in graph[u] if u != v)
