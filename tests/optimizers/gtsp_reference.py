"""Reference Or-opt and cluster DP: the GTSP local search before resumable scans.

The oracles of the differential tests in ``test_gtsp_differential.py``.
:func:`or_opt` applies the first improving move of :func:`first_move` and
starts its scan over at run 1 after every move; :func:`first_move` builds
every index array it needs on each call; :func:`optimize_vertices` steps the
dynamic program (DP) with one ``argmin`` and one gather per layer.  They
share only :class:`repro.optimizers.GtspProblem`'s weight buffer and index
tables with the package; patched into :mod:`repro.optimizers.gtsp` in place
of ``_or_opt`` and ``_optimize_vertices``, they give the reference
``solve_gtsp``.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.optimizers.gtsp import OR_OPT_BLOCK, OR_OPT_MAX_RUN


def optimize_vertices(problem, rows):
    """Exact DP: the cheapest vertex of every cluster for the cluster order of ``rows``."""
    layers = problem._padded_rows[problem._cluster_of_row[rows]]
    steps = problem._weights[layers[:-1, :, None], layers[1:, None, :]]
    columns = np.arange(layers.shape[1])
    costs = problem._weights[problem._begin, layers[0]]
    parents: List[np.ndarray] = []
    for step in steps:
        candidates = costs[:, None] + step
        best = candidates.argmin(axis=0)
        parents.append(best)
        costs = candidates[best, columns]
    choice = [int(costs.argmin())]
    for best in reversed(parents):
        choice.append(int(best[choice[-1]]))
    return layers[np.arange(len(layers)), choice[::-1]]


def first_move(weights, path, lo, hi) -> Optional[Tuple[int, int, int]]:
    """First improving Or-opt move ``(i, length, gap)`` with ``lo <= i < hi``."""
    m = len(path) - 2
    longest = min(OR_OPT_MAX_RUN, m - 1)
    if longest < 1:
        return None
    edges = weights[path[:-1], path[1:]]
    starts = np.arange(lo, hi)
    ends = starts[:, None] + np.arange(longest)
    fits = ends <= m
    ends = np.minimum(ends, m)
    enter = weights[path[None, :-1], path[starts, None]]
    leave = weights[path[ends, None], path[None, None, 1:]]
    insertion = (enter[:, None, :] + leave) - edges
    gaps = np.arange(m + 1)
    insertion[(gaps >= starts[:, None, None] - 1) & (gaps <= ends[:, :, None])] = np.inf
    removal = (
        weights[path[starts - 1, None], path[ends + 1]] - edges[starts - 1, None] - edges[ends]
    )
    hits = np.flatnonzero(fits & (removal + insertion.min(axis=2) < 0))
    if not hits.size:
        return None
    k, length = divmod(int(hits[0]), longest)
    return lo + k, length + 1, int(insertion[k, length].argmin())


def apply_move(path, move):
    """``path`` with the run of ``move = (i, length, gap)`` moved into its gap."""
    i, length, gap = move
    run = path[i:i + length]
    rest = np.concatenate((path[:i], path[i + length:]))
    at = gap + 1 if gap < i else gap + 1 - length
    return np.concatenate((rest[:at], run, rest[at:]))


def or_opt(problem, rows, moves=None):
    """First-improvement Or-opt, rescanning from run 1 after every move.

    Appends every applied ``(i, length, gap)`` to ``moves`` when given.
    """
    path = np.concatenate(([problem._begin], rows, [problem._end]))
    m = len(rows)
    lo = 1
    while lo <= m:
        move = first_move(problem._weights, path, lo, min(lo + OR_OPT_BLOCK, m + 1))
        if move is None:
            lo += OR_OPT_BLOCK
            continue
        if moves is not None:
            moves.append(move)
        path = apply_move(path, move)
        lo = 1
    return path[1:-1]
