"""The scalar McMurchie-Davidson integrals: the oracle of the batched engine.

One Python call per primitive pair or quartet, with the Hermite Coulomb
integrals ``R^n_{tuv}`` and the Boys function memoized per scalar argument.
:mod:`repro.chemistry.integrals` builds every integral of a molecule in one
batched pass; ``test_integral_oracle.py`` and ``test_integral_caches.py``
check that it matches these functions byte for byte.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from scipy.special import hyp1f1

from repro.chemistry.basis import BasisFunction
from repro.chemistry.hermite import hermite_expansion, primitive_overlap


@lru_cache(maxsize=1 << 18)
def boys_function(n: int, x: float) -> float:
    """Boys function ``F_n(x)`` via the confluent hypergeometric function."""
    return float(hyp1f1(n + 0.5, n + 1.5, -x) / (2.0 * n + 1.0))


@lru_cache(maxsize=1 << 18)
def hermite_coulomb(
    t: int, u: int, v: int, n: int, p: float, x: float, y: float, z: float, distance_sq: float
) -> float:
    """Hermite Coulomb auxiliary integral ``R^n_{tuv}``."""
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t == u == v == 0:
        return ((-2.0 * p) ** n) * boys_function(n, p * distance_sq)
    if t > 0:
        value = 0.0
        if t > 1:
            value += (t - 1) * hermite_coulomb(t - 2, u, v, n + 1, p, x, y, z, distance_sq)
        value += x * hermite_coulomb(t - 1, u, v, n + 1, p, x, y, z, distance_sq)
        return value
    if u > 0:
        value = 0.0
        if u > 1:
            value += (u - 1) * hermite_coulomb(t, u - 2, v, n + 1, p, x, y, z, distance_sq)
        value += y * hermite_coulomb(t, u - 1, v, n + 1, p, x, y, z, distance_sq)
        return value
    value = 0.0
    if v > 1:
        value += (v - 1) * hermite_coulomb(t, u, v - 2, n + 1, p, x, y, z, distance_sq)
    value += z * hermite_coulomb(t, u, v - 1, n + 1, p, x, y, z, distance_sq)
    return value


#: The uncached functions (one recursion step; deeper terms come from cache).
_boys_function_direct = boys_function.__wrapped__
_hermite_coulomb_direct = hermite_coulomb.__wrapped__


def primitive_kinetic(
    alpha: float,
    lmn1: Sequence[int],
    center_a: Sequence[float],
    beta: float,
    lmn2: Sequence[int],
    center_b: Sequence[float],
) -> float:
    """Kinetic-energy integral of two primitive Gaussians."""
    l2, m2, n2 = lmn2

    def shifted(dl: int, dm: int, dn: int) -> float:
        shifted_lmn = (l2 + dl, m2 + dm, n2 + dn)
        if min(shifted_lmn) < 0:
            return 0.0
        return primitive_overlap(alpha, lmn1, center_a, beta, shifted_lmn, center_b)

    term0 = beta * (2 * (l2 + m2 + n2) + 3) * shifted(0, 0, 0)
    term1 = -2.0 * beta ** 2 * (shifted(2, 0, 0) + shifted(0, 2, 0) + shifted(0, 0, 2))
    term2 = -0.5 * (
        l2 * (l2 - 1) * shifted(-2, 0, 0)
        + m2 * (m2 - 1) * shifted(0, -2, 0)
        + n2 * (n2 - 1) * shifted(0, 0, -2)
    )
    return term0 + term1 + term2


def primitive_nuclear(
    alpha: float,
    lmn1: Sequence[int],
    center_a: Sequence[float],
    beta: float,
    lmn2: Sequence[int],
    center_b: Sequence[float],
    nucleus: Sequence[float],
) -> float:
    """Nuclear-attraction integral of two primitives with a unit-charge nucleus."""
    p = alpha + beta
    composite = [
        (alpha * center_a[axis] + beta * center_b[axis]) / p for axis in range(3)
    ]
    pc = [composite[axis] - nucleus[axis] for axis in range(3)]
    distance_sq = sum(component * component for component in pc)

    l1, m1, n1 = lmn1
    l2, m2, n2 = lmn2
    value = 0.0
    for t in range(l1 + l2 + 1):
        ex = hermite_expansion(l1, l2, t, center_a[0] - center_b[0], alpha, beta)
        if ex == 0.0:
            continue
        for u in range(m1 + m2 + 1):
            ey = hermite_expansion(m1, m2, u, center_a[1] - center_b[1], alpha, beta)
            if ey == 0.0:
                continue
            for v in range(n1 + n2 + 1):
                ez = hermite_expansion(n1, n2, v, center_a[2] - center_b[2], alpha, beta)
                if ez == 0.0:
                    continue
                value += ex * ey * ez * hermite_coulomb(
                    t, u, v, 0, p, pc[0], pc[1], pc[2], distance_sq
                )
    return 2.0 * math.pi / p * value


def primitive_electron_repulsion(
    alpha: float, lmn1: Sequence[int], center_a: Sequence[float],
    beta: float, lmn2: Sequence[int], center_b: Sequence[float],
    gamma: float, lmn3: Sequence[int], center_c: Sequence[float],
    delta: float, lmn4: Sequence[int], center_d: Sequence[float],
) -> float:
    """Two-electron repulsion integral ``(ab|cd)`` over primitives (chemists' notation)."""
    l1, m1, n1 = lmn1
    l2, m2, n2 = lmn2
    l3, m3, n3 = lmn3
    l4, m4, n4 = lmn4
    p = alpha + beta
    q = gamma + delta
    composite_p = [
        (alpha * center_a[axis] + beta * center_b[axis]) / p for axis in range(3)
    ]
    composite_q = [
        (gamma * center_c[axis] + delta * center_d[axis]) / q for axis in range(3)
    ]
    reduced = p * q / (p + q)
    pq = [composite_p[axis] - composite_q[axis] for axis in range(3)]
    distance_sq = sum(component * component for component in pq)

    # Precompute the one-dimensional Hermite expansions for the bra and ket.
    ex1 = [hermite_expansion(l1, l2, t, center_a[0] - center_b[0], alpha, beta) for t in range(l1 + l2 + 1)]
    ey1 = [hermite_expansion(m1, m2, u, center_a[1] - center_b[1], alpha, beta) for u in range(m1 + m2 + 1)]
    ez1 = [hermite_expansion(n1, n2, v, center_a[2] - center_b[2], alpha, beta) for v in range(n1 + n2 + 1)]
    ex2 = [hermite_expansion(l3, l4, t, center_c[0] - center_d[0], gamma, delta) for t in range(l3 + l4 + 1)]
    ey2 = [hermite_expansion(m3, m4, u, center_c[1] - center_d[1], gamma, delta) for u in range(m3 + m4 + 1)]
    ez2 = [hermite_expansion(n3, n4, v, center_c[2] - center_d[2], gamma, delta) for v in range(n3 + n4 + 1)]

    value = 0.0
    for t, ex1_t in enumerate(ex1):
        if ex1_t == 0.0:
            continue
        for u, ey1_u in enumerate(ey1):
            if ey1_u == 0.0:
                continue
            for v, ez1_v in enumerate(ez1):
                if ez1_v == 0.0:
                    continue
                for tau, ex2_t in enumerate(ex2):
                    if ex2_t == 0.0:
                        continue
                    for nu, ey2_u in enumerate(ey2):
                        if ey2_u == 0.0:
                            continue
                        for phi, ez2_v in enumerate(ez2):
                            if ez2_v == 0.0:
                                continue
                            sign = (-1.0) ** (tau + nu + phi)
                            value += (
                                ex1_t * ey1_u * ez1_v * ex2_t * ey2_u * ez2_v * sign
                                * hermite_coulomb(
                                    t + tau, u + nu, v + phi, 0, reduced,
                                    pq[0], pq[1], pq[2], distance_sq,
                                )
                            )
    value *= 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))
    return value


def electron_repulsion_scalar(
    function_a: BasisFunction,
    function_b: BasisFunction,
    function_c: BasisFunction,
    function_d: BasisFunction,
) -> float:
    """Contracted ``(ab|cd)`` via one Python call per primitive quartet.

    The reference the batched engine is tested against.
    """
    total = 0.0
    for exp_a, coeff_a in zip(function_a.exponents, function_a.normalized_coefficients):
        for exp_b, coeff_b in zip(function_b.exponents, function_b.normalized_coefficients):
            for exp_c, coeff_c in zip(function_c.exponents, function_c.normalized_coefficients):
                for exp_d, coeff_d in zip(function_d.exponents, function_d.normalized_coefficients):
                    total += (
                        coeff_a * coeff_b * coeff_c * coeff_d
                        * primitive_electron_repulsion(
                            exp_a, function_a.lmn, function_a.center,
                            exp_b, function_b.lmn, function_b.center,
                            exp_c, function_c.lmn, function_c.center,
                            exp_d, function_d.lmn, function_d.center,
                        )
                    )
    return total
