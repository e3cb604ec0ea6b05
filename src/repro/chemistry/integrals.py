"""Molecular integrals over contracted Cartesian Gaussians.

McMurchie-Davidson scheme (J. Comput. Phys. 26, 218, 1978): overlaps,
kinetic energy, nuclear attraction and electron repulsion integrals (ERIs)
are assembled from Hermite expansion coefficients ``E_t^{ij}`` and Hermite
Coulomb integrals ``R^n_{tuv}``.  This replaces PySCF/Psi4 in this offline
reproduction; it is exact and validated against known Hartree-Fock energies.

``R^n_{tuv}`` depends only on the *primitive geometry* (centres and
exponents), which STO-3G's 2s and 2p functions share: NH3's 666 unique ERI
quartets sit on 121 geometry quartets.  So:

* :func:`shell_pair_data` caches, per function pair and as arrays over the
  ``(Ka, Kb)`` primitive grid, the composite exponents and centres, the
  nonzero Hermite expansion tables and the contraction weights;
* a :class:`HermiteCoulombTable` holds one geometry's reduced exponent,
  separation, Boys argument, prefactor and lazily filled ``R^n_{tuv}``.
  :func:`build_electron_repulsion_tensor` visits the unique quartets grouped
  by geometry quartet and :func:`build_nuclear_matrix` the pairs grouped by
  geometry pair, one table per group and one group at a time;
  :func:`electron_repulsion` and :func:`nuclear_attraction` are one-quartet
  and one-pair calls into the same kernels.

The scalar ``primitive_*`` functions and :func:`electron_repulsion_scalar`
are the reference: every array element follows their operation order,
integer powers use Python's float pow and contractions are summed left to
right, so the results are bit-identical.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import hyp1f1

from repro.chemistry.basis import BasisFunction, Molecule
from repro.chemistry.hermite import hermite_expansion, primitive_overlap
from repro.obs.metrics import get_metrics

#: Integral-engine traffic, in the global obs registry (cached objects: one
#: attribute add per event, no registry lookup on the hot path).
_PAIR_HITS = get_metrics().counter("chemistry.integrals.shell_pair.hits")
_PAIR_MISSES = get_metrics().counter("chemistry.integrals.shell_pair.misses")
_ERI_QUARTETS = get_metrics().counter("chemistry.integrals.eri.quartets")
_ERI_TABLES = get_metrics().counter("chemistry.integrals.eri.coulomb_tables")


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


# ----------------------------------------------------------------------
# Shell-pair data cache
# ----------------------------------------------------------------------
class ShellPairData:
    """Pairwise primitive data of two contracted Gaussians, as numpy arrays.

    Everything here depends only on the *pair* ``(a, b)``, so it is computed
    once and reused by every integral containing the pair; ``geometry`` (the
    two centres and exponent sets) is the part the Coulomb tables depend on.
    Entries equal the scalar recursion's bit for bit: the tables come from
    the memoized :func:`hermite_expansion` and the composite arithmetic does
    the same float64 operations elementwise.
    """

    __slots__ = ("geometry", "p", "composite", "terms", "hermite", "coefficients", "weights")

    def __init__(self, function_a: BasisFunction, function_b: BasisFunction):
        self.geometry = (
            function_a.center, function_a.exponents, function_b.center, function_b.exponents
        )
        exps_a = np.asarray(function_a.exponents, dtype=np.float64)
        exps_b = np.asarray(function_b.exponents, dtype=np.float64)
        self.p = exps_a[:, None] + exps_b[None, :]
        self.composite = [
            (exps_a[:, None] * function_a.center[axis]
             + exps_b[None, :] * function_b.center[axis]) / self.p
            for axis in range(3)
        ]
        # terms[axis] = [(t, E_t^{l1 l2} over the primitive grid)], keeping
        # only the tables with a nonzero entry: an all-zero table adds
        # nothing to any integral, so it is skipped once here.
        self.terms: List[List[Tuple[int, np.ndarray]]] = []
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
                if table.any():
                    tables.append((t, table))
            self.terms.append(tables)
        #: ``((t, u, v), E_t^x E_u^y E_v^z)`` over the nonzero tables, in the
        #: scalar loops' order.
        self.hermite = [
            ((t, u, v), ex * ey * ez)
            for t, ex in self.terms[0]
            for u, ey in self.terms[1]
            for v, ez in self.terms[2]
        ]
        self.coefficients = (
            np.asarray(function_a.normalized_coefficients, dtype=np.float64),
            np.asarray(function_b.normalized_coefficients, dtype=np.float64),
        )
        self.weights = self.coefficients[0][:, None] * self.coefficients[1][None, :]


#: Bounded (FIFO): pair keys contain continuous centers/exponents, so a
#: geometry sweep would otherwise accumulate array tables without limit.
_SHELL_PAIR_CACHE: Dict[Tuple, ShellPairData] = {}
_SHELL_PAIR_CACHE_MAX_ENTRIES = 4096


def shell_pair_data(function_a: BasisFunction, function_b: BasisFunction) -> ShellPairData:
    """The (cached) :class:`ShellPairData` of a contracted-function pair."""
    key = tuple(
        (f.center, f.lmn, f.exponents, f.normalized_coefficients) for f in (function_a, function_b)
    )
    data = _SHELL_PAIR_CACHE.get(key)
    if data is None:
        _PAIR_MISSES.inc()
        data = ShellPairData(function_a, function_b)
        while len(_SHELL_PAIR_CACHE) >= _SHELL_PAIR_CACHE_MAX_ENTRIES:
            _SHELL_PAIR_CACHE.pop(next(iter(_SHELL_PAIR_CACHE)))
        _SHELL_PAIR_CACHE[key] = data
    else:
        _PAIR_HITS.inc()
    return data


def clear_integral_caches() -> None:
    """Drop every memoized integral quantity (Hermite, Boys, shell pairs)."""
    hermite_expansion.cache_clear()
    hermite_coulomb.cache_clear()
    boys_function.cache_clear()
    _SHELL_PAIR_CACHE.clear()


def integral_cache_stats() -> Dict[str, int]:
    """Cache and ERI-build counters of the integral engine, one JSON-ready dict.

    The SCF span records the *delta* of this dict across a solve, so a trace
    shows how much integral work the chemistry front end served from cache
    versus recomputed, and how many ERI quartets shared how many Coulomb
    tables.
    """
    stats: Dict[str, int] = {}
    for name, cached in (
        ("boys", boys_function),
        ("hermite_expansion", hermite_expansion),
        ("hermite_coulomb", hermite_coulomb),
    ):
        info = cached.cache_info()
        stats[f"{name}.hits"] = info.hits
        stats[f"{name}.misses"] = info.misses
        stats[f"{name}.size"] = info.currsize
    stats["shell_pair.hits"] = _PAIR_HITS.value
    stats["shell_pair.misses"] = _PAIR_MISSES.value
    stats["shell_pair.size"] = len(_SHELL_PAIR_CACHE)
    stats["eri.quartets"] = _ERI_QUARTETS.value
    stats["eri.coulomb_tables"] = _ERI_TABLES.value
    return stats


# ----------------------------------------------------------------------
# Primitive integrals (the scalar reference)
# ----------------------------------------------------------------------
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
# Hermite Coulomb tables (one per primitive geometry)
# ----------------------------------------------------------------------
def _integer_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise ``base ** exponent`` via Python's float pow.

    ``np.power`` and CPython's ``float.__pow__`` may round differently in the
    last ulp for integer exponents; the scalar recursion uses the latter, so
    the array kernels must too for bit-identical integrals.
    """
    if exponent == 0:
        return np.ones_like(base)
    return np.array(
        [value ** exponent for value in base.ravel().tolist()], dtype=np.float64
    ).reshape(base.shape)


class HermiteCoulombTable:
    """``R^n_{tuv}`` over a primitive grid for one primitive geometry.

    ``exponent`` is the reduced exponent of a geometry quartet (electron
    repulsion) or the composite exponent of a geometry pair (nuclear
    attraction); ``(x, y, z)`` is the matching separation ``P - Q`` or
    ``P - C``.  Entries are filled on first use and memoized, and every
    element follows :func:`hermite_coulomb`'s operation order.
    """

    __slots__ = ("exponent", "x", "y", "z", "boys_argument", "prefactor", "_values")

    def __init__(self, exponent, x, y, z, prefactor):
        self.exponent = exponent
        self.x, self.y, self.z = x, y, z
        self.boys_argument = exponent * (x * x + y * y + z * z)
        self.prefactor = prefactor
        self._values: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def __call__(self, t: int, u: int, v: int, n: int = 0) -> np.ndarray:
        key = (t, u, v, n)
        value = self._values.get(key)
        if value is not None:
            return value
        if t == u == v == 0:
            value = _integer_power(-2.0 * self.exponent, n) * (
                hyp1f1(n + 0.5, n + 1.5, -self.boys_argument) / (2.0 * n + 1.0)
            )
        elif t > 0:
            value = 0.0
            if t > 1:
                value += (t - 1) * self(t - 2, u, v, n + 1)
            value += self.x * self(t - 1, u, v, n + 1)
        elif u > 0:
            value = 0.0
            if u > 1:
                value += (u - 1) * self(t, u - 2, v, n + 1)
            value += self.y * self(t, u - 1, v, n + 1)
        else:
            value = 0.0
            if v > 1:
                value += (v - 1) * self(t, u, v - 2, n + 1)
            value += self.z * self(t, u, v - 1, n + 1)
        self._values[key] = value
        return value


def _nuclear_table(pair: ShellPairData, nucleus: Sequence[float]) -> HermiteCoulombTable:
    """The table of one geometry pair and one nucleus, over ``(Ka, Kb)``."""
    x, y, z = (pair.composite[axis] - nucleus[axis] for axis in range(3))
    return HermiteCoulombTable(pair.p, x, y, z, 2.0 * math.pi / pair.p)


def _repulsion_table(bra: ShellPairData, ket: ShellPairData) -> HermiteCoulombTable:
    """The table of one geometry quartet, over ``(Ka, Kb, Kc, Kd)``."""
    p = bra.p[:, :, None, None]
    q = ket.p[None, None, :, :]
    x, y, z = (
        bra.composite[axis][:, :, None, None] - ket.composite[axis][None, None, :, :]
        for axis in range(3)
    )
    return HermiteCoulombTable(
        p * q / (p + q), x, y, z, 2.0 * math.pi ** 2.5 / (p * q * np.sqrt(p + q))
    )


def _contract(weights: np.ndarray, primitives: np.ndarray) -> float:
    """``Σ weights·primitives``, summed left to right in C order like the scalar loops."""
    return reduce(add, (weights * primitives).ravel().tolist(), 0.0)


def _contracted_nuclear(pair: ShellPairData, table: HermiteCoulombTable) -> float:
    """One pair's contracted attraction to the table's unit-charge nucleus."""
    value = 0.0
    for (t, u, v), product in pair.hermite:
        value += product * table(t, u, v)
    return _contract(pair.weights, table.prefactor * value)


def _contracted_repulsion(
    bra: ShellPairData, ket: ShellPairData, table: HermiteCoulombTable
) -> float:
    """One contracted ``(ab|cd)`` on its geometry quartet's table."""
    value = 0.0
    for (t, u, v), product in bra.hermite:
        e_bra = product[:, :, None, None]
        for tau, ex2 in ket.terms[0]:
            e4 = e_bra * ex2
            for nu, ey2 in ket.terms[1]:
                e5 = e4 * ey2
                for phi, ez2 in ket.terms[2]:
                    # The scalar multiplies by (-1)^(τ+ν+φ) before R; negating
                    # is exact, so subtracting the unsigned term is identical.
                    term = e5 * ez2 * table(t + tau, u + nu, v + phi)
                    if (tau + nu + phi) % 2:
                        value -= term
                    else:
                        value += term
    weights = bra.weights[:, :, None, None] * ket.coefficients[0][:, None] * ket.coefficients[1]
    return _contract(weights, value * table.prefactor)


# ----------------------------------------------------------------------
# Contracted integrals
# ----------------------------------------------------------------------
def _contract_pair(function_a: BasisFunction, function_b: BasisFunction, primitive) -> float:
    """``Σ c_a c_b primitive(a, b)`` over the two functions' primitives, scalar."""
    total = 0.0
    for exp_a, coeff_a in zip(function_a.exponents, function_a.normalized_coefficients):
        for exp_b, coeff_b in zip(function_b.exponents, function_b.normalized_coefficients):
            total += coeff_a * coeff_b * primitive(
                exp_a, function_a.lmn, function_a.center, exp_b, function_b.lmn, function_b.center
            )
    return total


def overlap(function_a: BasisFunction, function_b: BasisFunction) -> float:
    """Contracted overlap integral."""
    return _contract_pair(function_a, function_b, primitive_overlap)


def kinetic(function_a: BasisFunction, function_b: BasisFunction) -> float:
    """Contracted kinetic-energy integral."""
    return _contract_pair(function_a, function_b, primitive_kinetic)


def nuclear_attraction(
    function_a: BasisFunction, function_b: BasisFunction, molecule: Molecule
) -> float:
    """Contracted nuclear-attraction integral summed over all nuclei (with charges)."""
    pair = shell_pair_data(function_a, function_b)
    total = 0.0
    for atom in molecule.atoms:
        total -= atom.atomic_number * _contracted_nuclear(
            pair, _nuclear_table(pair, atom.position)
        )
    return total


def electron_repulsion_scalar(
    function_a: BasisFunction,
    function_b: BasisFunction,
    function_c: BasisFunction,
    function_d: BasisFunction,
) -> float:
    """Contracted ``(ab|cd)`` via one Python call per primitive quartet.

    The reference the table kernel is tested against.
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


def electron_repulsion(
    function_a: BasisFunction,
    function_b: BasisFunction,
    function_c: BasisFunction,
    function_d: BasisFunction,
) -> float:
    """Contracted two-electron integral ``(ab|cd)`` in chemists' notation."""
    bra = shell_pair_data(function_a, function_b)
    ket = shell_pair_data(function_c, function_d)
    return _contracted_repulsion(bra, ket, _repulsion_table(bra, ket))


# ----------------------------------------------------------------------
# Full integral tensors
# ----------------------------------------------------------------------
def _pair_matrix(basis: Sequence[BasisFunction], element) -> np.ndarray:
    """Symmetric AO matrix with ``element(basis[i], basis[j])`` for ``i <= j``."""
    n = len(basis)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            matrix[i, j] = matrix[j, i] = element(basis[i], basis[j])
    return matrix


def build_overlap_matrix(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Overlap matrix S in the AO basis."""
    return _pair_matrix(basis, overlap)


def build_kinetic_matrix(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Kinetic-energy matrix T in the AO basis."""
    return _pair_matrix(basis, kinetic)


def build_nuclear_matrix(basis: Sequence[BasisFunction], molecule: Molecule) -> np.ndarray:
    """Nuclear-attraction matrix V in the AO basis.

    One Coulomb table per (geometry pair, nucleus); every function pair on
    the geometry pair is contracted from it, nuclei in molecule order.
    """
    n = len(basis)
    by_geometry: Dict[Tuple, List[Tuple[int, int, ShellPairData]]] = {}
    for i in range(n):
        for j in range(i, n):
            pair = shell_pair_data(basis[i], basis[j])
            by_geometry.setdefault(pair.geometry, []).append((i, j, pair))
    matrix = np.zeros((n, n))
    for pairs in by_geometry.values():
        for atom in molecule.atoms:
            table = _nuclear_table(pairs[0][2], atom.position)
            for i, j, pair in pairs:
                matrix[i, j] -= atom.atomic_number * _contracted_nuclear(pair, table)
        for i, j, _ in pairs:
            matrix[j, i] = matrix[i, j]
    return matrix


def build_core_hamiltonian(basis: Sequence[BasisFunction], molecule: Molecule) -> np.ndarray:
    """Core Hamiltonian ``H_core = T + V``."""
    return build_kinetic_matrix(basis) + build_nuclear_matrix(basis, molecule)


def build_electron_repulsion_tensor(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Full ERI tensor ``(ij|kl)`` in chemists' notation, using 8-fold symmetry.

    The unique quartets ``ij >= kl`` are visited grouped by geometry quartet:
    each group shares one :class:`HermiteCoulombTable`, which is dropped
    before the next group's is built.
    """
    n = len(basis)
    pairs = [
        (i, j, shell_pair_data(basis[i], basis[j])) for i in range(n) for j in range(i + 1)
    ]
    by_geometry: Dict[Tuple, List[Tuple]] = {}
    for ij, bra_entry in enumerate(pairs):
        for ket_entry in pairs[: ij + 1]:
            key = bra_entry[2].geometry + ket_entry[2].geometry
            by_geometry.setdefault(key, []).append(bra_entry + ket_entry)
    indices: List[Tuple[int, int, int, int]] = []
    values: List[float] = []
    for quartets in by_geometry.values():
        table = _repulsion_table(quartets[0][2], quartets[0][5])
        for i, j, bra, k, l, ket in quartets:
            indices.append((i, j, k, l))
            values.append(_contracted_repulsion(bra, ket, table))
    _ERI_QUARTETS.inc(len(values))
    _ERI_TABLES.inc(len(by_geometry))

    tensor = np.zeros((n, n, n, n))
    i, j, k, l = np.array(indices, dtype=int).reshape(-1, 4).T
    for a, b, c, d in (
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    ):
        tensor[a, b, c, d] = values
    return tensor
