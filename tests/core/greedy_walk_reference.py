"""Reference greedy walk: one savings row gathered per step.

The oracle of the differential tests in ``test_greedy_walk_differential.py``:
:func:`repro.core.advanced_sorting.greedy_walk` as it was before it kept one
same-target table per visited target.  Every step gathers the saving of
every string after the current vertex from the string-pair tables ``both``
and ``equal`` and the letter codes, as
``both + equal·[classes agree on t] - [letters equal on t]``.
"""

import numpy as np

from repro.core.advanced_sorting import GreedyWalk
from repro.operators import routed_vertex_cost_vector, support_matrix


def savings_row(savings, source, target):
    """Saving of ``(j, target)`` right after ``(source, target)``, for every ``j``."""
    both, equal = savings.tables
    codes = np.arange(4)[:, None]
    letters = savings.letters[target]
    same_class = ((letters[None, :] & 1) == (codes & 1)).astype(np.int64)
    same_letter = (letters[None, :] == codes).astype(np.int64)
    letter = savings.letters[target, source]
    return both[source] + equal[source] * same_class[letter] - same_letter[letter]


def greedy_walk(strings, distance_matrix=None):
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
    closed = -(1 << 40)
    scores = np.where(support, -vertex_costs, closed)
    n = support.shape[1]
    source, target = 0, int(n - 1 - np.argmax(support[0, ::-1]))
    path_rows, path_targets = [source], [target]
    saved = 0
    first = int(scores.argmax())
    for _ in range(m - 1):
        scores[source] = closed
        if source == first // n:
            first = int(scores.argmax())
        gains = scores[:, target] + savings_row(savings, source, target)
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
