"""Molecular integrals over contracted Cartesian Gaussians.

McMurchie-Davidson scheme: overlaps, kinetic energy, nuclear attraction and
electron repulsion integrals (ERIs) are assembled from Hermite Gaussian
expansion coefficients and Boys functions.  This is the computational kernel
that replaces PySCF/Psi4 in this offline reproduction; it is exact (not an
approximation) and validated against known Hartree-Fock energies in the test
suite.

Performance layer (caches are bit-transparent — every cached or vectorized
path returns exactly the floats the direct recursion returns):

* :func:`hermite_expansion`, :func:`boys_function` and
  :func:`hermite_coulomb` are memoized — the expansion coefficients depend
  only on the Gaussian *pair*, so one shell pair's table is computed once and
  reused across every quartet it appears in instead of once per quartet;
* a shell-pair data cache (:func:`shell_pair_data`) stores the pairwise
  composite exponents/centers and the full Hermite expansion tables as numpy
  arrays, keyed by the pair of contracted functions;
* :func:`electron_repulsion` evaluates all primitive quartets of a contracted
  ERI in one vectorized sweep over the ``(Ka, Kb, Kc, Kd)`` grid (the Hermite
  Coulomb recursion runs on whole quartet arrays) instead of one Python call
  per primitive quartet;
* :func:`set_integral_caching` / :func:`clear_integral_caches` switch the
  whole layer off (falling back to the seed's scalar recursion, which
  ``tests/chemistry/test_integral_caches.py`` compares against) and drop
  the cached state.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import hyp1f1

from repro.chemistry.basis import BasisFunction, Molecule
from repro.obs.metrics import get_metrics

#: Whether the memoization/vectorization layer is active (see
#: :func:`set_integral_caching`).
_CACHING_ENABLED = True

#: Shell-pair cache traffic, in the global obs registry (cached objects:
#: one attribute add per event, no registry lookup on the hot path).
_PAIR_HITS = get_metrics().counter("chemistry.integrals.shell_pair.hits")
_PAIR_MISSES = get_metrics().counter("chemistry.integrals.shell_pair.misses")


def boys_function(n: int, x: float) -> float:
    """Boys function ``F_n(x)`` via the confluent hypergeometric function."""
    if _CACHING_ENABLED:
        return _boys_function_cached(n, x)
    return _boys_function_direct(n, x)


def _boys_function_direct(n: int, x: float) -> float:
    return float(hyp1f1(n + 0.5, n + 1.5, -x) / (2.0 * n + 1.0))


_boys_function_cached = lru_cache(maxsize=1 << 18)(_boys_function_direct)


def hermite_expansion(
    i: int, j: int, t: int, separation: float, alpha: float, beta: float
) -> float:
    """Hermite Gaussian expansion coefficient ``E_t^{ij}`` (one dimension).

    Recursion of McMurchie and Davidson for the product of two Gaussians with
    exponents ``alpha`` and ``beta`` separated by ``separation`` along one
    Cartesian axis.  The coefficient depends only on the Gaussian *pair*, so
    it is memoized: one shell pair's coefficients are computed once and
    served from cache across the many integral quartets the pair appears in.
    """
    if _CACHING_ENABLED:
        return _hermite_expansion_cached(i, j, t, separation, alpha, beta)
    return _hermite_expansion_direct(i, j, t, separation, alpha, beta)


def _hermite_expansion_direct(
    i: int, j: int, t: int, separation: float, alpha: float, beta: float
) -> float:
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


# Bounded: keys contain continuous separations/exponents, so a geometry sweep
# would otherwise grow the table without limit.
_hermite_expansion_cached = lru_cache(maxsize=1 << 20)(_hermite_expansion_direct)


def hermite_coulomb(
    t: int, u: int, v: int, n: int, p: float, x: float, y: float, z: float, distance_sq: float
) -> float:
    """Hermite Coulomb auxiliary integral ``R^n_{tuv}``."""
    if _CACHING_ENABLED:
        return _hermite_coulomb_cached(t, u, v, n, p, x, y, z, distance_sq)
    return _hermite_coulomb_direct(t, u, v, n, p, x, y, z, distance_sq)


def _hermite_coulomb_direct(
    t: int, u: int, v: int, n: int, p: float, x: float, y: float, z: float, distance_sq: float
) -> float:
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


_hermite_coulomb_cached = lru_cache(maxsize=1 << 18)(_hermite_coulomb_direct)


# ----------------------------------------------------------------------
# Shell-pair data cache
# ----------------------------------------------------------------------
class ShellPairData:
    """Pairwise primitive data of two contracted Gaussians, as numpy arrays.

    Everything here depends only on the *pair* ``(a, b)`` — composite
    exponents ``p``, composite centers ``P`` and the one-dimensional Hermite
    expansion tables — so it is computed once per pair and reused by every
    integral quartet containing the pair.  All entries reproduce the scalar
    recursion bit-for-bit (the tables are filled from the memoized scalar
    :func:`hermite_expansion`; the composite arithmetic performs the same
    IEEE float64 operations elementwise).
    """

    __slots__ = ("p", "composite", "expansion", "lmn_a", "lmn_b")

    def __init__(self, function_a: BasisFunction, function_b: BasisFunction):
        exps_a = np.asarray(function_a.exponents, dtype=np.float64)
        exps_b = np.asarray(function_b.exponents, dtype=np.float64)
        self.lmn_a = function_a.lmn
        self.lmn_b = function_b.lmn
        self.p = exps_a[:, None] + exps_b[None, :]
        self.composite = [
            (exps_a[:, None] * function_a.center[axis]
             + exps_b[None, :] * function_b.center[axis]) / self.p
            for axis in range(3)
        ]
        # expansion[axis][t][i, j] = E_t^{l1 l2} for primitives (i, j).
        self.expansion = []
        for axis in range(3):
            l1 = function_a.lmn[axis]
            l2 = function_b.lmn[axis]
            separation = function_a.center[axis] - function_b.center[axis]
            tables = []
            for t in range(l1 + l2 + 1):
                table = np.empty_like(self.p)
                for i, alpha in enumerate(function_a.exponents):
                    for j, beta in enumerate(function_b.exponents):
                        table[i, j] = hermite_expansion(l1, l2, t, separation, alpha, beta)
                tables.append(table)
            self.expansion.append(tables)


def _basis_function_key(function: BasisFunction) -> Tuple:
    return (
        function.center,
        function.lmn,
        function.exponents,
        function.normalized_coefficients,
    )


#: Bounded (FIFO): pair keys contain continuous centers/exponents, so a
#: geometry sweep would otherwise accumulate array tables without limit.
_SHELL_PAIR_CACHE: Dict[Tuple, ShellPairData] = {}
_SHELL_PAIR_CACHE_MAX_ENTRIES = 4096


def shell_pair_data(function_a: BasisFunction, function_b: BasisFunction) -> ShellPairData:
    """The (cached) :class:`ShellPairData` of a contracted-function pair."""
    key = (_basis_function_key(function_a), _basis_function_key(function_b))
    data = _SHELL_PAIR_CACHE.get(key)
    if data is None:
        _PAIR_MISSES.inc()
        data = ShellPairData(function_a, function_b)
        if _CACHING_ENABLED:
            while len(_SHELL_PAIR_CACHE) >= _SHELL_PAIR_CACHE_MAX_ENTRIES:
                _SHELL_PAIR_CACHE.pop(next(iter(_SHELL_PAIR_CACHE)))
            _SHELL_PAIR_CACHE[key] = data
    else:
        _PAIR_HITS.inc()
    return data


def clear_integral_caches() -> None:
    """Drop every memoized integral quantity (Hermite, Boys, shell pairs)."""
    _hermite_expansion_cached.cache_clear()
    _hermite_coulomb_cached.cache_clear()
    _boys_function_cached.cache_clear()
    _SHELL_PAIR_CACHE.clear()


def integral_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of every integral cache, one JSON-ready dict.

    The SCF span records the *delta* of this dict across a solve, so a trace
    shows exactly how much integral work the chemistry front end served from
    cache versus recomputed.
    """
    stats: Dict[str, int] = {}
    for name, cached in (
        ("boys", _boys_function_cached),
        ("hermite_expansion", _hermite_expansion_cached),
        ("hermite_coulomb", _hermite_coulomb_cached),
    ):
        info = cached.cache_info()
        stats[f"{name}.hits"] = info.hits
        stats[f"{name}.misses"] = info.misses
        stats[f"{name}.size"] = info.currsize
    stats["shell_pair.hits"] = _PAIR_HITS.value
    stats["shell_pair.misses"] = _PAIR_MISSES.value
    stats["shell_pair.size"] = len(_SHELL_PAIR_CACHE)
    return stats


def set_integral_caching(enabled: bool) -> bool:
    """Enable/disable the caching + vectorization layer; returns the old flag.

    Disabling clears every cache and routes :func:`hermite_expansion`,
    :func:`boys_function`, :func:`hermite_coulomb` and
    :func:`electron_repulsion` through the direct scalar recursion — the
    seed-era behavior the compile benchmark measures as its "before" state.
    Both modes produce bit-identical integrals.
    """
    global _CACHING_ENABLED
    previous = _CACHING_ENABLED
    _CACHING_ENABLED = bool(enabled)
    clear_integral_caches()
    return previous


# ----------------------------------------------------------------------
# Primitive integrals
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Contracted integrals
# ----------------------------------------------------------------------
def _contract_pair(function_a: BasisFunction, function_b: BasisFunction, primitive) -> float:
    total = 0.0
    for exp_a, coeff_a in zip(function_a.exponents, function_a.normalized_coefficients):
        for exp_b, coeff_b in zip(function_b.exponents, function_b.normalized_coefficients):
            total += coeff_a * coeff_b * primitive(exp_a, exp_b)
    return total


def overlap(function_a: BasisFunction, function_b: BasisFunction) -> float:
    """Contracted overlap integral."""
    return _contract_pair(
        function_a,
        function_b,
        lambda a, b: primitive_overlap(
            a, function_a.lmn, function_a.center, b, function_b.lmn, function_b.center
        ),
    )


def kinetic(function_a: BasisFunction, function_b: BasisFunction) -> float:
    """Contracted kinetic-energy integral."""
    return _contract_pair(
        function_a,
        function_b,
        lambda a, b: primitive_kinetic(
            a, function_a.lmn, function_a.center, b, function_b.lmn, function_b.center
        ),
    )


def nuclear_attraction(
    function_a: BasisFunction, function_b: BasisFunction, molecule: Molecule
) -> float:
    """Contracted nuclear-attraction integral summed over all nuclei (with charges)."""
    total = 0.0
    for atom in molecule.atoms:
        contribution = _contract_pair(
            function_a,
            function_b,
            lambda a, b, nucleus=atom.position: primitive_nuclear(
                a, function_a.lmn, function_a.center,
                b, function_b.lmn, function_b.center, nucleus,
            ),
        )
        total -= atom.atomic_number * contribution
    return total


def electron_repulsion_scalar(
    function_a: BasisFunction,
    function_b: BasisFunction,
    function_c: BasisFunction,
    function_d: BasisFunction,
) -> float:
    """Contracted ``(ab|cd)`` via one Python call per primitive quartet.

    The seed implementation, kept as the reference the vectorized path is
    differential-tested against (and as the "before" half of the compile
    benchmark).
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


def _integer_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise ``base ** exponent`` via Python's float pow.

    ``np.power`` and CPython's ``float.__pow__`` may round differently in the
    last ulp for integer exponents; the scalar recursion uses the latter, so
    the vectorized path must too for bit-identical integrals.
    """
    if exponent == 0:
        return np.ones_like(base)
    return np.array(
        [value ** exponent for value in base.ravel().tolist()], dtype=np.float64
    ).reshape(base.shape)


def _electron_repulsion_vectorized(
    function_a: BasisFunction,
    function_b: BasisFunction,
    function_c: BasisFunction,
    function_d: BasisFunction,
) -> float:
    """Contracted ``(ab|cd)`` over the whole primitive-quartet grid at once.

    All per-quartet composite quantities and the Hermite Coulomb recursion are
    evaluated on ``(Ka, Kb, Kc, Kd)`` numpy arrays.  Every elementwise
    operation replicates the scalar implementation's operation order exactly
    (single IEEE additions/multiplications in the same sequence; the Boys
    ufunc applied to an array equals its scalar application per element), so
    the result is bit-identical to :func:`electron_repulsion_scalar`.
    """
    bra = shell_pair_data(function_a, function_b)
    ket = shell_pair_data(function_c, function_d)

    p = bra.p[:, :, None, None]
    q = ket.p[None, None, :, :]
    reduced = p * q / (p + q)
    deltas = [
        bra.composite[axis][:, :, None, None] - ket.composite[axis][None, None, :, :]
        for axis in range(3)
    ]
    x, y, z = deltas
    distance_sq = x * x + y * y + z * z
    boys_argument = reduced * distance_sq

    coulomb_cache: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def coulomb(t: int, u: int, v: int, n: int):
        """Grid-valued ``R^n_{tuv}``; mirrors the scalar recursion term order."""
        if t < 0 or u < 0 or v < 0:
            return 0.0
        key = (t, u, v, n)
        cached = coulomb_cache.get(key)
        if cached is not None:
            return cached
        if t == u == v == 0:
            value = _integer_power(-2.0 * reduced, n) * (
                hyp1f1(n + 0.5, n + 1.5, -boys_argument) / (2.0 * n + 1.0)
            )
        elif t > 0:
            value = 0.0
            if t > 1:
                value += (t - 1) * coulomb(t - 2, u, v, n + 1)
            value += x * coulomb(t - 1, u, v, n + 1)
        elif u > 0:
            value = 0.0
            if u > 1:
                value += (u - 1) * coulomb(t, u - 2, v, n + 1)
            value += y * coulomb(t, u - 1, v, n + 1)
        else:
            value = 0.0
            if v > 1:
                value += (v - 1) * coulomb(t, u, v - 2, n + 1)
            value += z * coulomb(t, u, v - 1, n + 1)
        coulomb_cache[key] = value
        return value

    value = np.zeros_like(reduced)
    for t, ex1_t in enumerate(bra.expansion[0]):
        if not ex1_t.any():
            continue
        for u, ey1_u in enumerate(bra.expansion[1]):
            if not ey1_u.any():
                continue
            e12 = ex1_t * ey1_u
            for v, ez1_v in enumerate(bra.expansion[2]):
                if not ez1_v.any():
                    continue
                e_bra = (e12 * ez1_v)[:, :, None, None]
                for tau, ex2_t in enumerate(ket.expansion[0]):
                    if not ex2_t.any():
                        continue
                    e4 = e_bra * ex2_t[None, None, :, :]
                    for nu, ey2_u in enumerate(ket.expansion[1]):
                        if not ey2_u.any():
                            continue
                        e5 = e4 * ey2_u[None, None, :, :]
                        for phi, ez2_v in enumerate(ket.expansion[2]):
                            if not ez2_v.any():
                                continue
                            sign = (-1.0) ** (tau + nu + phi)
                            value += (
                                e5 * ez2_v[None, None, :, :] * sign
                                * coulomb(t + tau, u + nu, v + phi, 0)
                            )
    value = value * (2.0 * math.pi ** 2.5 / (p * q * np.sqrt(p + q)))

    coeff_a = np.asarray(function_a.normalized_coefficients, dtype=np.float64)
    coeff_b = np.asarray(function_b.normalized_coefficients, dtype=np.float64)
    coeff_c = np.asarray(function_c.normalized_coefficients, dtype=np.float64)
    coeff_d = np.asarray(function_d.normalized_coefficients, dtype=np.float64)
    contributions = (
        (coeff_a[:, None] * coeff_b[None, :])[:, :, None, None]
        * coeff_c[None, None, :, None]
        * coeff_d[None, None, None, :]
        * value
    )
    # Sequential left-to-right accumulation in the scalar loop's (a, b, c, d)
    # order (C-order ravel), so the contraction rounds identically.
    total = 0.0
    for contribution in contributions.ravel().tolist():
        total += contribution
    return total


def electron_repulsion(
    function_a: BasisFunction,
    function_b: BasisFunction,
    function_c: BasisFunction,
    function_d: BasisFunction,
) -> float:
    """Contracted two-electron integral ``(ab|cd)`` in chemists' notation."""
    if _CACHING_ENABLED:
        return _electron_repulsion_vectorized(
            function_a, function_b, function_c, function_d
        )
    return electron_repulsion_scalar(function_a, function_b, function_c, function_d)


# ----------------------------------------------------------------------
# Full integral tensors
# ----------------------------------------------------------------------
def build_overlap_matrix(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Overlap matrix S in the AO basis."""
    n = len(basis)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            matrix[i, j] = matrix[j, i] = overlap(basis[i], basis[j])
    return matrix


def build_kinetic_matrix(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Kinetic-energy matrix T in the AO basis."""
    n = len(basis)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            matrix[i, j] = matrix[j, i] = kinetic(basis[i], basis[j])
    return matrix


def build_nuclear_matrix(basis: Sequence[BasisFunction], molecule: Molecule) -> np.ndarray:
    """Nuclear-attraction matrix V in the AO basis."""
    n = len(basis)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            matrix[i, j] = matrix[j, i] = nuclear_attraction(basis[i], basis[j], molecule)
    return matrix


def build_core_hamiltonian(basis: Sequence[BasisFunction], molecule: Molecule) -> np.ndarray:
    """Core Hamiltonian ``H_core = T + V``."""
    return build_kinetic_matrix(basis) + build_nuclear_matrix(basis, molecule)


def build_electron_repulsion_tensor(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Full ERI tensor ``(ij|kl)`` in chemists' notation, using 8-fold symmetry."""
    n = len(basis)
    tensor = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(i + 1):
            ij = i * (i + 1) // 2 + j
            for k in range(n):
                for l in range(k + 1):
                    kl = k * (k + 1) // 2 + l
                    if ij < kl:
                        continue
                    value = electron_repulsion(basis[i], basis[j], basis[k], basis[l])
                    for a, b, c, d in (
                        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
                    ):
                        tensor[a, b, c, d] = value
    return tensor
