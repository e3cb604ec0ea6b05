"""Hermite Gaussian expansion coefficients and the primitive overlap.

The leaf of the chemistry package: :mod:`~repro.chemistry.basis` normalizes
contracted functions with :func:`primitive_overlap`, and
:mod:`~repro.chemistry.integrals` runs the :func:`hermite_expansion`
recursion on arrays, element for element the same, and clears its memo.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence


# Bounded: keys contain continuous separations/exponents, so a geometry sweep
# would otherwise grow the table without limit.
@lru_cache(maxsize=1 << 20)
def hermite_expansion(
    i: int, j: int, t: int, separation: float, alpha: float, beta: float
) -> float:
    """Hermite Gaussian expansion coefficient ``E_t^{ij}`` (one dimension).

    Recursion of McMurchie and Davidson for the product of two Gaussians with
    exponents ``alpha`` and ``beta`` separated by ``separation`` along one
    Cartesian axis.  The coefficient depends only on the Gaussian *pair*, so
    it is memoized: one shell pair's coefficients are computed once and
    served from cache across every integral they enter.
    """
    p = alpha + beta
    q = alpha * beta / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return math.exp(-q * separation * separation)
    if j == 0:
        return (
            (1.0 / (2.0 * p)) * hermite_expansion(i - 1, j, t - 1, separation, alpha, beta)
            - (q * separation / alpha) * hermite_expansion(i - 1, j, t, separation, alpha, beta)
            + (t + 1) * hermite_expansion(i - 1, j, t + 1, separation, alpha, beta)
        )
    return (
        (1.0 / (2.0 * p)) * hermite_expansion(i, j - 1, t - 1, separation, alpha, beta)
        + (q * separation / beta) * hermite_expansion(i, j - 1, t, separation, alpha, beta)
        + (t + 1) * hermite_expansion(i, j - 1, t + 1, separation, alpha, beta)
    )


#: One uncached recursion step (its sub-coefficients still come from the cache).
_hermite_expansion_direct = hermite_expansion.__wrapped__


def primitive_overlap(
    alpha: float,
    lmn1: Sequence[int],
    center_a: Sequence[float],
    beta: float,
    lmn2: Sequence[int],
    center_b: Sequence[float],
) -> float:
    """Overlap of two primitive Cartesian Gaussians."""
    p = alpha + beta
    value = (math.pi / p) ** 1.5
    for axis in range(3):
        value *= hermite_expansion(
            lmn1[axis], lmn2[axis], 0, center_a[axis] - center_b[axis], alpha, beta
        )
    return value
