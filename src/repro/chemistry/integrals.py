"""Molecular integrals over contracted Cartesian Gaussians.

McMurchie-Davidson scheme (J. Comput. Phys. 26, 218, 1978): overlaps,
kinetic energy, nuclear attraction and electron repulsion integrals (ERIs)
are assembled from Hermite expansion coefficients ``E_t^{ij}`` and Hermite
Coulomb integrals ``R^n_{tuv}``.  This replaces PySCF/Psi4 in this offline
reproduction; it is exact and validated against known Hartree-Fock energies.

Each of S, T, V and the ERI tensor is built in one batched pass per molecule:

* the shell pairs of a basis are built in one batch (grids padded to the
  longest contraction with zero-weight primitives): Hermite tables, composite
  exponents and centres, and the contracted overlap and kinetic energy;
* ``R^n_{tuv}`` depends only on the *primitive geometry* (centres and
  exponents), which STO-3G's 2s and 2p functions share: NH3's 666 unique ERI
  quartets sit on 121 geometry quartets.  One Hermite-Coulomb array holds
  every geometry quartet (for V, every geometry pair x nucleus), in chunks of
  ``_CHUNK_TERMS`` terms; a row is carried only up to the order it needs,
  and ``hyp1f1`` and ``(-2a)^n`` are evaluated once per distinct argument;
* every (integral, Hermite index) product is gathered at once and summed per
  integral in the scalar loops' order from ``0.0``; contractions are summed
  left to right.

Every element follows the operation order of the scalar reference
(``tests/chemistry/scalar_integrals.py``): powers use Python's float pow,
nothing is summed pairwise, and a padded primitive or an all-zero table only
adds ``±0.0`` to a sum that starts at ``+0.0``.  So the results are
byte-identical.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.chemistry.basis import BasisFunction, Molecule
from repro.chemistry.hermite import hermite_expansion
from repro.obs.metrics import get_metrics

#: Integral-engine traffic, in the global obs registry (cached objects: one
#: attribute add per event, no registry lookup on the hot path).
_PAIR_HITS = get_metrics().counter("chemistry.integrals.shell_pair.hits")
_PAIR_MISSES = get_metrics().counter("chemistry.integrals.shell_pair.misses")
_ERI_QUARTETS = get_metrics().counter("chemistry.integrals.eri.quartets")
_ERI_TABLES = get_metrics().counter("chemistry.integrals.eri.coulomb_tables")

#: (quartet, Hermite index) terms per batched ERI chunk, in whole geometry
#: quartets: bounds the transient arrays.
_CHUNK_TERMS = 512


# ----------------------------------------------------------------------
# Shell-pair data cache
# ----------------------------------------------------------------------
class ShellPairData:
    """Pairwise primitive data of two contracted Gaussians, as numpy arrays.

    Everything here depends only on the *pair* ``(a, b)``, so it is computed
    once and reused by every integral containing the pair; ``geometry`` (the
    two centres and exponent sets) is the part the Coulomb tables depend on.
    ``overlap`` and ``kinetic`` are the contracted integrals.
    """

    __slots__ = (
        "geometry", "p", "composite", "terms", "hermite", "order", "coefficients",
        "weights", "overlap", "kinetic",
    )

    def __init__(self, geometry, p, composite, terms, coefficients, overlap, kinetic):
        self.geometry = geometry
        self.p = p
        self.composite = composite
        #: terms[axis] = [(t, E_t^{l1 l2} over the primitive grid)], keeping
        #: only the tables with a nonzero entry: an all-zero table adds
        #: nothing to any integral, so it is skipped once here.
        self.terms: List[List[Tuple[int, np.ndarray]]] = terms
        #: ``((t, u, v), E_t^x E_u^y E_v^z)`` over the nonzero tables, in the
        #: scalar loops' order.
        self.hermite = [
            ((t, u, v), ex * ey * ez) for (t, ex), (u, ey), (v, ez) in itertools.product(*terms)
        ]
        self.order = max((sum(tuv) for tuv, _ in self.hermite), default=0)
        self.coefficients = coefficients
        self.weights = coefficients[0][:, None] * coefficients[1][None, :]
        self.overlap = overlap
        self.kinetic = kinetic


def _build_pairs(function_pairs: Sequence[Tuple[BasisFunction, BasisFunction]], size: int):
    """:class:`ShellPairData` of each ``(a, b)``, all in one batched pass.

    Both functions are padded to ``size`` primitives of exponent 1.0 and
    weight 0.0, so every grid is ``size x size``.  The recursion of
    :func:`~repro.chemistry.hermite.hermite_expansion` runs on arrays over
    every pair's grid, and the primitive overlap and kinetic energy follow
    the scalar reference's expressions.
    """
    padded = [
        [tuple(f.exponents) + (1.0,) * (size - len(f.exponents)) for f in pair]
        for pair in function_pairs
    ]
    coefficients = np.array([
        [f.normalized_coefficients + (0.0,) * (size - len(f.exponents)) for f in pair]
        for pair in function_pairs
    ])
    alpha, beta = np.array(padded)[:, 0, :, None], np.array(padded)[:, 1, None, :]
    centers = np.array([[f.center for f in pair] for pair in function_pairs])
    lmn = np.array([[f.lmn for f in pair] for pair in function_pairs])
    p = alpha + beta
    q = alpha * beta / p
    composite = (
        alpha[:, None] * centers[:, 0, :, None, None] + beta[:, None] * centers[:, 1, :, None, None]
    ) / p[:, None]
    separation = (centers[:, 0] - centers[:, 1])[:, :, None, None]
    memo: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def expansion(axis: int, i: int, j: int, t: int):
        """``E_t^{ij}`` along ``axis`` over every pair's grid, memoized."""
        if t < 0 or t > i + j:
            return 0.0
        key = (axis, i, j, t)
        if key not in memo:
            distance = separation[:, axis]
            if i == j == t == 0:
                memo[key] = _Distinct(-q * distance * distance).map(_elementwise(math.exp))
            elif j == 0:
                memo[key] = (
                    (1.0 / (2.0 * p)) * expansion(axis, i - 1, j, t - 1)
                    - (q * distance / alpha) * expansion(axis, i - 1, j, t)
                    + (t + 1) * expansion(axis, i - 1, j, t + 1)
                )
            else:
                memo[key] = (
                    (1.0 / (2.0 * p)) * expansion(axis, i, j - 1, t - 1)
                    + (q * distance / beta) * expansion(axis, i, j - 1, t)
                    + (t + 1) * expansion(axis, i, j - 1, t + 1)
                )
        return memo[key]

    def table(axis: int, t: int, shift: int = 0) -> np.ndarray:
        """``E_t^{l1, l2+shift}`` of each pair along ``axis`` (``0.0`` out of range)."""
        l1, l2 = lmn[:, 0, axis], lmn[:, 1, axis] + shift
        stacked = np.zeros(p.shape)
        for i, j in set(zip(l1.tolist(), l2.tolist())):
            if j >= 0 and t <= i + j:
                rows = (l1 == i) & (l2 == j)
                stacked[rows] = expansion(axis, i, j, t)[rows]
        return stacked

    prefactor = _Distinct(math.pi / p).map(_elementwise(lambda x: x ** 1.5))
    e0 = {(axis, shift): table(axis, 0, shift) for axis in range(3) for shift in (-2, 0, 2)}

    def overlaps(axis: int = 0, shift: int = 0) -> np.ndarray:
        """Primitive overlaps, ``b``'s angular momentum on ``axis`` shifted (``0.0`` below 0)."""
        value = prefactor
        for direction in range(3):
            value = value * e0[direction, shift if direction == axis else 0]
        value[lmn[:, 1, axis] + shift < 0] = 0.0
        return value

    # The scalar kinetic integral's integer factors, as exact floats.
    l2 = lmn[:, 1, :, None, None]
    falling = (l2 * (l2 - 1)).astype(np.float64)
    overlap = overlaps()
    term0 = beta * (2 * l2.sum(axis=1) + 3).astype(np.float64) * overlap
    term1 = -2.0 * _Distinct(beta).map(_elementwise(lambda x: x ** 2)) * (
        overlaps(0, 2) + overlaps(1, 2) + overlaps(2, 2)
    )
    term2 = -0.5 * (
        falling[:, 0] * overlaps(0, -2)
        + falling[:, 1] * overlaps(1, -2)
        + falling[:, 2] * overlaps(2, -2)
    )
    weights = coefficients[:, 0, :, None] * coefficients[:, 1, None, :]
    overlap, kinetic = _contract(weights, overlap), _contract(weights, term0 + term1 + term2)
    tables = [
        np.array([table(axis, t) for t in range(int(lmn[:, :, axis].sum(axis=1).max()) + 1)])
        for axis in range(3)
    ]
    nonzero = [axis_tables.any(axis=(2, 3)).tolist() for axis_tables in tables]
    orders = (lmn[:, 0] + lmn[:, 1]).tolist()
    return [
        ShellPairData(
            (fa.center, padded[index][0], fb.center, padded[index][1]),
            p[index],
            composite[index],
            [
                [(t, tables[axis][t, index]) for t in range(orders[index][axis] + 1)
                 if nonzero[axis][t][index]]
                for axis in range(3)
            ],
            coefficients[index],
            float(overlap[index]),
            float(kinetic[index]),
        )
        for index, (fa, fb) in enumerate(function_pairs)
    ]


#: Bounded (FIFO): pair keys contain continuous centers/exponents, so a
#: geometry sweep would otherwise accumulate array tables without limit.
_SHELL_PAIR_CACHE: Dict[Tuple, ShellPairData] = {}
_SHELL_PAIR_CACHE_MAX_ENTRIES = 4096


def _shell_pairs(function_pairs: Sequence[Tuple[BasisFunction, ...]]) -> List[ShellPairData]:
    """The (cached) shell pairs of ``(a, b)`` functions, padded to the longest contraction.

    The pairs not yet cached are built in one :func:`_build_pairs` pass.
    """
    size = max(len(f.exponents) for pair in function_pairs for f in pair)
    keys = [
        (size,) + tuple((f.center, f.lmn, f.exponents, f.normalized_coefficients) for f in pair)
        for pair in function_pairs
    ]
    found: Dict[Tuple, ShellPairData] = {}
    missing: Dict[Tuple, Tuple[BasisFunction, BasisFunction]] = {}
    for key, pair in zip(keys, function_pairs):
        data = _SHELL_PAIR_CACHE.get(key)
        if data is not None:
            found[key] = data
        else:
            missing.setdefault(key, pair)
    _PAIR_HITS.inc(len(keys) - len(missing))
    _PAIR_MISSES.inc(len(missing))
    if missing:
        for key, data in zip(missing, _build_pairs(list(missing.values()), size)):
            found[key] = data
            while len(_SHELL_PAIR_CACHE) >= _SHELL_PAIR_CACHE_MAX_ENTRIES:
                _SHELL_PAIR_CACHE.pop(next(iter(_SHELL_PAIR_CACHE)))
            _SHELL_PAIR_CACHE[key] = data
    return [found[key] for key in keys]


def shell_pair_data(function_a: BasisFunction, function_b: BasisFunction) -> ShellPairData:
    """The (cached) :class:`ShellPairData` of one pair."""
    return _shell_pairs([(function_a, function_b)])[0]


def clear_integral_caches() -> None:
    """Drop every memoized integral quantity (Hermite expansions, shell pairs)."""
    hermite_expansion.cache_clear()
    _SHELL_PAIR_CACHE.clear()


def integral_cache_stats() -> Dict[str, int]:
    """Cache and ERI-build counters of the integral engine, one JSON-ready dict.

    The SCF span records the *delta* of this dict across a solve: what the
    chemistry front end served from cache, and how many ERI quartets sat on
    how many geometry quartets.
    """
    info = hermite_expansion.cache_info()
    return {
        "hermite_expansion.hits": info.hits,
        "hermite_expansion.misses": info.misses,
        "hermite_expansion.size": info.currsize,
        "shell_pair.hits": _PAIR_HITS.value,
        "shell_pair.misses": _PAIR_MISSES.value,
        "shell_pair.size": len(_SHELL_PAIR_CACHE),
        "eri.quartets": _ERI_QUARTETS.value,
        "eri.coulomb_tables": _ERI_TABLES.value,
    }


# ----------------------------------------------------------------------
# Batched kernels
# ----------------------------------------------------------------------
class _Distinct:
    """An array's distinct values, to evaluate a function once per distinct value."""

    def __init__(self, values: np.ndarray):
        self.values, index = np.unique(values, return_inverse=True)
        self.index = index.reshape(values.shape)

    def map(self, function: Callable[[np.ndarray], np.ndarray], rows=None) -> np.ndarray:
        """``function`` of the leading ``rows`` elements, once per distinct value among them."""
        index = self.index[:rows]
        used = np.zeros(len(self.values), dtype=bool)
        used[index] = True
        mapped = np.zeros(len(self.values))
        mapped[used] = function(self.values[used])
        return mapped[index]


def _elementwise(function: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """``function`` on each element as a Python float.

    Where numpy may round differently (``np.power``, ``np.exp``), the scalar
    reference's ``float.__pow__`` and ``math.exp`` are used.
    """
    return lambda values: np.array([function(value) for value in values.tolist()])


def _hermite_coulomb(exponent, pq, orders, keys) -> np.ndarray:
    """``R^0_{tuv}`` for each ``(t, u, v)`` in ``keys``, over the rows that read it.

    Rows (one primitive geometry each) come by non-increasing ``orders``, the
    largest ``t+u+v`` the row's integrals read; ``R^n_{tuv}`` is carried over
    the leading rows of order ``>= t+u+v+n`` only.
    """
    # Imported here so that compiling, which imports this package, loads no scipy.
    from scipy.special import hyp1f1

    x, y, z = pq
    arguments = _Distinct(exponent * (x * x + y * y + z * z))
    powers = _Distinct(-2.0 * exponent)
    rows_at = [int(np.count_nonzero(orders >= n)) for n in range(int(orders[0]) + 1)]
    memo: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def coulomb(tuv: Tuple[int, int, int], n: int) -> np.ndarray:
        value = memo.get(tuv + (n,))
        if value is not None:
            return value
        rows = rows_at[sum(tuv) + n]
        if not any(tuv):
            value = powers.map(_elementwise(lambda base: base ** n), rows) * arguments.map(
                lambda distinct: hyp1f1(n + 0.5, n + 1.5, -distinct) / (2.0 * n + 1.0), rows
            )
        else:
            axis = 0 if tuv[0] else 1 if tuv[1] else 2
            index = tuv[axis]
            lower = tuv[:axis] + (index - 1,) + tuv[axis + 1:]
            value = 0.0
            if index > 1:
                lowest = tuv[:axis] + (index - 2,) + tuv[axis + 1:]
                value += (index - 1) * coulomb(lowest, n + 1)[:rows]
            value += pq[axis][:rows] * coulomb(lower, n + 1)
        memo[tuv + (n,)] = value
        return value

    return [coulomb(tuv, 0) for tuv in keys]


def _term_positions(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(item, position)`` of every term when item ``i`` owns ``counts[i]`` terms."""
    item = np.repeat(np.arange(len(counts)), counts)
    return item, np.arange(len(item)) - (np.cumsum(counts) - counts)[item]


def _hermite_sums(terms, codes, base, term_rows, counts, exponent, pq, orders):
    """``Σ_h coefficient_h R^0_{key_h}`` per item, in term order from ``0.0``.

    ``terms`` holds each item's coefficients consecutively (multiplied by ``R``
    in place), ``codes`` their ``(t·base + u)·base + v`` and ``term_rows`` their
    rows of ``exponent``/``pq``/``orders`` (by non-increasing order, see _rows).
    """
    distinct, key_index = np.unique(codes, return_inverse=True)
    keys = [(code // base // base, code // base % base, code % base) for code in distinct.tolist()]
    tables = _hermite_coulomb(exponent, pq, orders, keys)
    offsets = np.cumsum([0] + [len(table) for table in tables[:-1]])
    terms *= np.concatenate(tables)[offsets[key_index.reshape(-1)] + term_rows]
    starts = np.cumsum(counts) - counts
    total = np.zeros((len(counts), terms.shape[1]))
    for position in range(int(counts.max(initial=0))):
        active = np.flatnonzero(counts > position)
        total[active] += terms[starts[active] + position]
    return total


def _contract(weights: np.ndarray, primitives: np.ndarray) -> np.ndarray:
    """``Σ weights·primitives`` per item, left to right in C order like the scalar loops.

    ``add.accumulate`` adds in order from the first term, not ``0.0``: that can
    only flip the sign of an all-zero sum, which the final ``+ 0.0`` settles.
    """
    n = len(weights)
    products = weights.reshape(n, -1) * primitives.reshape(n, -1)
    return np.add.accumulate(products, axis=1)[:, -1] + 0.0


class _PairStack:
    """The arrays of a list of shell pairs (one grid shape), stacked for one pass.

    Entry ``h`` is one ``(t, u, v)`` of one pair's ``hermite`` list, in the
    scalar loop order.  As a bra it reads ``products[h]``; as a ket it reads
    the per-axis ``tables[xyz[:, h]]`` and the sign ``(-1)^(t+u+v)``.  Hermite
    indices are coded ``(t·base + u)·base + v``; ``base`` exceeds any index
    sum, so a bra code plus a ket code is the code of the summed index.
    """

    def __init__(self, pairs: Sequence[ShellPairData]):
        geometry_ids: Dict[Tuple, int] = {}
        self.geometry = np.array(
            [geometry_ids.setdefault(pair.geometry, len(geometry_ids)) for pair in pairs]
        )
        self.p = np.array([pair.p for pair in pairs])
        self.composite = np.array([pair.composite for pair in pairs])
        self.coefficients = np.array([pair.coefficients for pair in pairs])
        self.weights = np.array([pair.weights for pair in pairs])
        self.order = np.array([pair.order for pair in pairs])
        self.count = np.array([len(pair.hermite) for pair in pairs], dtype=np.intp)
        self.start = np.cumsum(self.count) - self.count
        grid = (-1,) + pairs[0].p.shape
        self.products = np.array([e for pair in pairs for _, e in pair.hermite]).reshape(grid)
        tables: List[np.ndarray] = []
        xyz: List[Tuple[int, int, int]] = []
        for pair in pairs:
            indices = []
            for axis_terms in pair.terms:
                indices.append(range(len(tables), len(tables) + len(axis_terms)))
                tables.extend(table for _, table in axis_terms)
            xyz.extend(itertools.product(*indices))
        self.tables = np.array(tables).reshape(grid)
        self.xyz = np.array(xyz, dtype=np.intp).reshape(-1, 3).T
        tuv = np.array([tuv for pair in pairs for tuv, _ in pair.hermite]).reshape(-1, 3)
        self.odd = tuv.sum(axis=1) % 2 == 1
        self.base = 2 * int(self.order.max()) + 1
        self.code = (tuv[:, 0] * self.base + tuv[:, 1]) * self.base + tuv[:, 2]


def _rows(keys: np.ndarray, orders: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Items grouped by ``keys``: each item's row, a representative item per row, row orders.

    A row's order is its items' largest; rows go by non-increasing order.
    """
    distinct, rows = np.unique(keys, return_inverse=True)
    row_orders = np.zeros(len(distinct), dtype=np.intp)
    np.maximum.at(row_orders, rows.reshape(-1), orders)
    ranked = np.argsort(-row_orders, kind="stable")
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(len(ranked))
    rows = rank[rows.reshape(-1)]
    representative = np.empty(len(distinct), dtype=np.intp)
    representative[rows] = np.arange(len(rows))
    return rows, representative, row_orders[ranked]


def _repulsion_values(
    pairs: Sequence[ShellPairData], bra: np.ndarray, ket: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Contracted ``(ab|cd)`` of each quartet ``(pairs[bra[i]], pairs[ket[i]])``.

    Returns the values and the number of geometry quartets (rows) they sit on;
    chunks of whole rows hold about ``_CHUNK_TERMS`` terms each.
    """
    stack = _PairStack(pairs)
    rows, representative, orders = _rows(
        stack.geometry[bra] * len(pairs) + stack.geometry[ket], stack.order[bra] + stack.order[ket]
    )
    values = np.empty(len(bra))
    terms = np.bincount(rows, stack.count[bra] * stack.count[ket])
    first = (np.cumsum(terms) - terms) // _CHUNK_TERMS
    starts = np.flatnonzero(np.diff(first, prepend=-1)).tolist() + [len(representative)]
    for start, stop in zip(starts, starts[1:]):
        chunk = np.flatnonzero((rows >= start) & (rows < stop))
        values[chunk] = _repulsion_chunk(
            stack, bra[chunk], ket[chunk], rows[chunk] - start,
            bra[representative[start:stop]], ket[representative[start:stop]], orders[start:stop],
        )
    return values, len(representative)


def _repulsion_chunk(stack: _PairStack, bra, ket, quartet_rows, row_bra, row_ket, orders):
    """Contracted ERIs of the quartets on one chunk of geometry quartets."""
    n_rows = len(orders)
    p = stack.p[row_bra][:, :, :, None, None]
    q = stack.p[row_ket][:, None, None, :, :]
    pq = (
        stack.composite[row_bra][:, :, :, :, None, None]
        - stack.composite[row_ket][:, :, None, None, :, :]
    ).swapaxes(0, 1).reshape(3, n_rows, -1)
    prefactor = (2.0 * math.pi ** 2.5 / (p * q * np.sqrt(p + q))).reshape(n_rows, -1)
    counts = stack.count[bra] * stack.count[ket]
    item, position = _term_positions(counts)
    ket_count = stack.count[ket][item]
    b = stack.start[bra][item] + position // ket_count
    k = stack.start[ket][item] + position % ket_count
    x, y, z = (stack.tables[index][:, None, None] for index in stack.xyz[:, k])
    coefficients = stack.products[b][:, :, :, None, None] * x
    coefficients *= y
    coefficients *= z
    # The scalar multiplies by (-1)^(τ+ν+φ) before R; negating is exact.
    np.negative(coefficients, out=coefficients, where=stack.odd[k][:, None, None, None, None])
    sums = _hermite_sums(
        coefficients.reshape(len(b), -1), stack.code[b] + stack.code[k], stack.base,
        quartet_rows[item], counts, (p * q / (p + q)).reshape(n_rows, -1), pq, orders,
    )
    weights = (
        stack.weights[bra][:, :, :, None, None]
        * stack.coefficients[ket, 0][:, None, None, :, None]
        * stack.coefficients[ket, 1][:, None, None, None, :]
    )
    sums *= prefactor[quartet_rows]
    return _contract(weights, sums)


def _nuclear_values(pairs: Sequence[ShellPairData], molecule: Molecule) -> np.ndarray:
    """``-Σ_C Z_C (a|1/r_C|b)`` for each pair, nuclei summed in molecule order.

    One Hermite-Coulomb row per (geometry pair, nucleus); one item per
    (pair, nucleus), with the pair's bra terms.
    """
    stack = _PairStack(pairs)
    n_atoms = len(molecule.atoms)
    rows, representative, orders = _rows(stack.geometry, stack.order)
    exponent = np.repeat(stack.p[representative].reshape(len(representative), -1), n_atoms, axis=0)
    nuclei = np.array([atom.position for atom in molecule.atoms])
    pc = stack.composite[representative][:, None] - nuclei[None, :, :, None, None]
    counts = np.repeat(stack.count, n_atoms)
    item_rows = (rows[:, None] * n_atoms + np.arange(n_atoms)).reshape(-1)
    item, position = _term_positions(counts)
    b = np.repeat(stack.start, n_atoms)[item] + position
    sums = _hermite_sums(
        stack.products[b].reshape(len(b), -1), stack.code[b], stack.base, item_rows[item], counts,
        exponent, pc.transpose(2, 0, 1, 3, 4).reshape(3, len(exponent), -1),
        np.repeat(orders, n_atoms),
    )
    attraction = _contract(
        np.repeat(stack.weights, n_atoms, axis=0), (2.0 * math.pi / exponent)[item_rows] * sums
    ).reshape(len(pairs), n_atoms)
    total = np.zeros(len(pairs))
    for index, atom in enumerate(molecule.atoms):
        total -= atom.atomic_number * attraction[:, index]
    return total


# ----------------------------------------------------------------------
# Contracted integrals and full integral tensors
# ----------------------------------------------------------------------
def overlap(function_a: BasisFunction, function_b: BasisFunction) -> float:
    """Contracted overlap integral."""
    return shell_pair_data(function_a, function_b).overlap


def kinetic(function_a: BasisFunction, function_b: BasisFunction) -> float:
    """Contracted kinetic-energy integral."""
    return shell_pair_data(function_a, function_b).kinetic


def nuclear_attraction(
    function_a: BasisFunction, function_b: BasisFunction, molecule: Molecule
) -> float:
    """Contracted nuclear-attraction integral summed over all nuclei (with charges)."""
    return float(_nuclear_values([shell_pair_data(function_a, function_b)], molecule)[0])


def electron_repulsion(
    function_a: BasisFunction,
    function_b: BasisFunction,
    function_c: BasisFunction,
    function_d: BasisFunction,
) -> float:
    """Contracted two-electron integral ``(ab|cd)`` in chemists' notation."""
    pairs = _shell_pairs([(function_a, function_b), (function_c, function_d)])
    values, _ = _repulsion_values(pairs, np.array([0]), np.array([1]))
    return float(values[0])


def _basis_pairs(basis: Sequence[BasisFunction], rows, cols) -> List[ShellPairData]:
    """The shell pairs ``(basis[i], basis[j])``, padded to the basis' longest contraction.

    Every ordered pair is fetched, so a cold basis builds both orientations in
    one batch: S, T and V read ``i <= j`` and the ERI ``i >= j``, each as its
    scalar reference does.
    """
    n = len(basis)
    grid = _shell_pairs([(a, b) for a in basis for b in basis])
    return [grid[i * n + j] for i, j in zip(rows.tolist(), cols.tolist())]


def _pair_matrix(basis: Sequence[BasisFunction], values) -> np.ndarray:
    """Symmetric AO matrix with ``values(pairs)`` for the pairs ``i <= j``."""
    n = len(basis)
    matrix = np.zeros((n, n))
    if n:
        rows, cols = np.triu_indices(n)
        matrix[rows, cols] = matrix[cols, rows] = values(_basis_pairs(basis, rows, cols))
    return matrix


def build_overlap_matrix(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Overlap matrix S in the AO basis."""
    return _pair_matrix(basis, lambda pairs: [pair.overlap for pair in pairs])


def build_kinetic_matrix(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Kinetic-energy matrix T in the AO basis."""
    return _pair_matrix(basis, lambda pairs: [pair.kinetic for pair in pairs])


def build_nuclear_matrix(basis: Sequence[BasisFunction], molecule: Molecule) -> np.ndarray:
    """Nuclear-attraction matrix V in the AO basis."""
    return _pair_matrix(basis, lambda pairs: _nuclear_values(pairs, molecule))


def build_core_hamiltonian(basis: Sequence[BasisFunction], molecule: Molecule) -> np.ndarray:
    """Core Hamiltonian ``H_core = T + V``."""
    return build_kinetic_matrix(basis) + build_nuclear_matrix(basis, molecule)


def build_electron_repulsion_tensor(basis: Sequence[BasisFunction]) -> np.ndarray:
    """Full ERI tensor ``(ij|kl)`` in chemists' notation, using 8-fold symmetry.

    The unique quartets ``ij >= kl`` are computed in one batched pass.
    """
    n = len(basis)
    tensor = np.zeros((n, n, n, n))
    if not n:
        return tensor
    rows, cols = np.tril_indices(n)
    pairs = _basis_pairs(basis, rows, cols)
    bra, ket = np.tril_indices(len(pairs))
    values, n_geometries = _repulsion_values(pairs, bra, ket)
    _ERI_QUARTETS.inc(len(values))
    _ERI_TABLES.inc(n_geometries)
    i, j, k, l = rows[bra], cols[bra], rows[ket], cols[ket]
    for a, b, c, d in (
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    ):
        tensor[a, b, c, d] = values
    return tensor
