"""Batched symplectic (bit-packed) Pauli operations over numpy.

:class:`~repro.operators.pauli.PauliString` stores one string as two
arbitrary-precision bit-mask integers.  The compilation hot paths — pairwise
commutation scans, the GTSP interface-cancellation cost matrices of the
advanced sorting, and the Γ-search inner loop — need those operations over
*many* strings at once.  This module packs a string collection into
``(m, words)`` ``uint64`` arrays (64 qubits per word) and evaluates the
pairwise quantities as whole-matrix numpy bit operations:

* :func:`commutation_matrix` — the symplectic inner product
  ``x_a·z_b + z_a·x_b (mod 2)`` for every pair,
* :func:`weight_vector` / :func:`overlap_matrix` — Pauli weights and
  support-overlap sizes,
* :func:`interface_reduction_matrix` — the ω-rule CNOT savings of
  Sec. III-B for every ordered pair of targeted strings (the GTSP edge
  weights of :mod:`repro.core.advanced_sorting`),
* :class:`SameTargetSavings` — the same savings from string-pair tables,
  one row of same-target vertices at a time (the greedy walk of
  :mod:`repro.core.advanced_sorting` and the Γ-search objective),
* :func:`linear_encoding_image` — the strings conjugated by the CNOT
  circuit of a linear encoding Γ, as a GF(2) map of the planes (the Γ-search
  objective of :mod:`repro.core.gamma_search` applies one per candidate,
  and :class:`~repro.transforms.LinearEncodingTransform` adds the sign),
* :func:`lexicographic_order` — the :class:`PauliString` sort order.

All functions accept either a :class:`PackedPaulis` or any iterable of
:class:`PauliString` (packed on the fly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.operators.pauli import PauliString

#: Qubits per packed word.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


def _n_words(n_qubits: int) -> int:
    """Packed words per plane for ``n_qubits`` qubits (at least one)."""
    return max(1, -(-n_qubits // WORD_BITS))


def _pack_masks(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack arbitrary-precision bit-mask ints into an ``(m, n_words)`` uint64 array."""
    out = np.zeros((len(masks), n_words), dtype=np.uint64)
    for row, mask in enumerate(masks):
        word = 0
        while mask:
            out[row, word] = mask & _WORD_MASK
            mask >>= WORD_BITS
            word += 1
    return out


@dataclass(frozen=True)
class PackedPaulis:
    """A collection of Pauli strings as packed ``uint64`` X/Z bit-planes.

    ``x[i, w]`` holds qubits ``64 w .. 64 w + 63`` of string ``i``'s X mask
    (bit ``q - 64 w`` inside the word), and likewise ``z``.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray

    @classmethod
    def from_strings(cls, strings: Iterable[PauliString]) -> "PackedPaulis":
        strings = list(strings)
        if not strings:
            return cls(n_qubits=0, x=np.zeros((0, 1), dtype=np.uint64),
                       z=np.zeros((0, 1), dtype=np.uint64))
        n = strings[0].n_qubits
        for string in strings:
            if string.n_qubits != n:
                raise ValueError("all strings must act on the same register size")
        n_words = _n_words(n)
        return cls(
            n_qubits=n,
            x=_pack_masks([s.x_mask for s in strings], n_words),
            z=_pack_masks([s.z_mask for s in strings], n_words),
        )

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_words(self) -> int:
        return self.x.shape[1]

    def to_strings(self) -> List[PauliString]:
        """Unpack back into :class:`PauliString` objects."""
        result = []
        for row in range(len(self)):
            x = 0
            z = 0
            for word in range(self.n_words - 1, -1, -1):
                x = (x << WORD_BITS) | int(self.x[row, word])
                z = (z << WORD_BITS) | int(self.z[row, word])
            result.append(PauliString.from_bitmasks(self.n_qubits, x, z))
        return result


Packable = Union[PackedPaulis, Iterable[PauliString]]


def _as_packed(strings: Packable) -> PackedPaulis:
    if isinstance(strings, PackedPaulis):
        return strings
    return PackedPaulis.from_strings(strings)


def _unpack_planes(planes: np.ndarray, n_qubits: int) -> np.ndarray:
    """``(m, words)`` packed plane -> ``(m, n_qubits)`` uint8 array of 0/1 bits."""
    as_bytes = np.ascontiguousarray(planes, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=n_qubits, bitorder="little")


def _pack_planes(bits: np.ndarray, n_words: int) -> np.ndarray:
    """``(m, n)`` array of 0/1 bits -> ``(m, n_words)`` packed uint64 plane."""
    padded = np.zeros((bits.shape[0], n_words * WORD_BITS), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _popcount_pairwise(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """Sum of per-word popcounts of ``op(a[i], b[j])`` for every pair (i, j)."""
    combined = op(a[:, None, :], b[None, :, :])
    return np.bitwise_count(combined).sum(axis=-1, dtype=np.int64)


def weight_vector(strings: Packable) -> np.ndarray:
    """Pauli weight of every string, as an ``(m,)`` int array."""
    packed = _as_packed(strings)
    return np.bitwise_count(packed.x | packed.z).sum(axis=-1, dtype=np.int64)


def commutation_matrix(
    strings: Packable, others: Optional[Packable] = None
) -> np.ndarray:
    """Boolean matrix ``C[i, j] = strings[i] commutes with others[j]``.

    ``others`` defaults to ``strings`` (the symmetric all-pairs scan).  Two
    strings commute iff ``popcount((x_i ∧ z_j) ⊕ (z_i ∧ x_j))`` is even.
    """
    a = _as_packed(strings)
    b = a if others is None else _as_packed(others)
    if a.n_qubits != b.n_qubits:
        raise ValueError("cannot compare Pauli strings on different qubit counts")
    anti = np.bitwise_count(
        (a.x[:, None, :] & b.z[None, :, :]) ^ (a.z[:, None, :] & b.x[None, :, :])
    ).sum(axis=-1, dtype=np.int64)
    return (anti & 1) == 0


def overlap_matrix(
    strings: Packable, others: Optional[Packable] = None
) -> np.ndarray:
    """Pairwise support-overlap sizes ``|supp(i) ∩ supp(j)|`` as an int matrix."""
    a = _as_packed(strings)
    b = a if others is None else _as_packed(others)
    if a.n_qubits != b.n_qubits:
        raise ValueError("cannot compare Pauli strings on different qubit counts")
    return _popcount_pairwise(a.x | a.z, b.x | b.z, np.bitwise_and)


def support_matrix(strings: Packable) -> np.ndarray:
    """Boolean ``(m, n_qubits)`` matrix: string ``i`` is non-identity on ``q``."""
    packed = _as_packed(strings)
    return _unpack_planes(packed.x | packed.z, packed.n_qubits).astype(bool)


def linear_encoding_image(
    strings: Packable, gamma: np.ndarray, gamma_inverse: np.ndarray
) -> PackedPaulis:
    """The strings conjugated by the CNOT circuit ``U_Γ: |x⟩ ↦ |Γx⟩``, unsigned.

    Conjugation by a CNOT circuit acts linearly on the symplectic planes
    (Aaronson & Gottesman, arXiv:quant-ph/0406196): the X plane maps to
    ``Γ x`` and the Z plane to ``Γ^{-T} z``.  This is the only map of Pauli
    planes by Γ in the package.  The ±1 sign is dropped; supports and labels
    do not depend on it, and :class:`repro.transforms.LinearEncodingTransform`
    restores it from the Y counts.  ``gamma_inverse`` is the GF(2) inverse
    of the 0/1 matrix ``gamma``; both are ``n × n`` for strings on ``n``
    qubits, any ``n``.  An empty collection carries no register size and
    maps to the empty collection on Γ's.
    """
    packed = _as_packed(strings)
    gamma = np.asarray(gamma, dtype=np.uint8)
    gamma_inverse = np.asarray(gamma_inverse, dtype=np.uint8)
    n = packed.n_qubits if len(packed) else gamma.shape[0]
    if gamma.shape != (n, n) or gamma_inverse.shape != (n, n):
        raise ValueError(f"Γ and its inverse must be {n}×{n} for {n}-qubit strings")
    # Row-vector form: x' = x Γ^T and z' = z Γ^{-1}.  uint8 products wrap
    # modulo 256, which keeps the parity the mod-2 sum needs.
    x = (_unpack_planes(packed.x, n) @ gamma.T) & 1
    z = (_unpack_planes(packed.z, n) @ gamma_inverse) & 1
    n_words = _n_words(n)
    return PackedPaulis(n_qubits=n, x=_pack_planes(x, n_words), z=_pack_planes(z, n_words))


def lexicographic_order(
    strings: Packable, groups: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Indices that sort the strings as :meth:`PauliString.__lt__` does.

    Labels compare qubit 0 first with ``I < X < Y < Z``.  With ``groups``
    the strings are sorted by group first (ascending) and by label inside
    each group.
    """
    packed = _as_packed(strings)
    n = packed.n_qubits
    # Per-qubit sort key x ^ 3z: I=0, X=1, Y=2, Z=3.
    keys = _unpack_planes(packed.x, n) ^ (3 * _unpack_planes(packed.z, n))
    # np.lexsort treats its last key as the primary one.
    sort_keys = list(keys.T[::-1])
    if groups is not None:
        sort_keys.append(np.asarray(groups))
    if not sort_keys:
        return np.arange(len(packed))
    return np.lexsort(sort_keys)


def routed_vertex_cost_vector(
    strings: Packable,
    targets: Sequence[int],
    distance_matrix: np.ndarray,
) -> np.ndarray:
    """Connectivity-aware CNOT cost of each targeted string, vectorized.

    For vertex ``(P, t)`` the cost is ``2 Σ_{q ∈ supp(P), q ≠ t}
    (2 d(q, t) - 1)`` — the steered parity ladder charges at most ``2 d - 1``
    CNOTs per support qubit each way (hops shared between support qubits only
    make this an upper bound).  On an all-to-all topology (``d = 1``
    everywhere) this collapses to the template cost ``2 (w - 1)``, so the
    distance-weighted GTSP degenerates exactly to the paper's formulation.
    """
    packed = _as_packed(strings)
    targets_arr = np.asarray(list(targets), dtype=np.int64)
    if len(packed) != targets_arr.shape[0]:
        raise ValueError("one target per string is required")
    if not len(packed):
        return np.zeros(0, dtype=np.int64)
    distance = np.asarray(distance_matrix, dtype=np.int64)
    support = support_matrix(packed)
    n = support.shape[1]
    if distance.shape[0] < n or distance.shape[1] < n:
        raise ValueError(
            f"distance matrix of shape {distance.shape} cannot cover "
            f"{n}-qubit strings"
        )
    if np.any(distance[:n, :n] < 0):
        raise ValueError("distance matrix has unreachable pairs (-1 entries)")
    d_to_target = distance[:n, targets_arr].T  # (m, n): d(q, t_i)
    per_qubit = np.where(support, 2 * d_to_target - 1, 0)
    rows = np.arange(len(packed))
    per_qubit[rows, targets_arr] = 0  # the target itself carries the Rz
    return 2 * per_qubit.sum(axis=1)


def distance_weighted_cost_matrix(
    strings: Packable,
    targets: Sequence[int],
    distance_matrix: np.ndarray,
) -> np.ndarray:
    """GTSP edge weights steering the advanced sorting by topology distance.

    Entry ``[a, b]`` is the estimated CNOT cost of implementing vertex ``b``
    right after vertex ``a`` on the device: the distance-weighted ladder cost
    of ``b`` (:func:`routed_vertex_cost_vector`) minus the Sec. III-B
    interface savings (:func:`interface_reduction_matrix`).  On all-to-all
    distances this equals ``2 (w_b - 1) - savings[a, b]``, i.e. the paper's
    objective shifted by a per-cluster constant, so the optimal tour is
    unchanged there.
    """
    packed = _as_packed(strings)
    cost = routed_vertex_cost_vector(packed, targets, distance_matrix)
    savings = interface_reduction_matrix(packed, targets)
    return cost[None, :] - savings


def interface_reduction_matrix(
    strings: Packable, targets: Sequence[int]
) -> np.ndarray:
    """Pairwise interface CNOT savings for targeted strings (Sec. III-B ω-rule).

    Entry ``[a, b]`` is the number of CNOTs saved by implementing the targeted
    exponential ``(strings[b], targets[b])`` immediately after
    ``(strings[a], targets[a])`` — exactly
    :func:`repro.circuits.interface.interface_cnot_reduction` evaluated for
    every ordered pair at once.  Pairs with different targets save zero,
    matching the paper, so only the same-target blocks are evaluated: one
    vectorized pass over the pairs that share a target.

    The strings/targets arguments are "vertices" in the GTSP sense: the same
    Pauli string may appear several times with different targets.
    """
    packed = _as_packed(strings)
    targets_arr = np.asarray(list(targets), dtype=np.int64)
    m = len(packed)
    if m != targets_arr.shape[0]:
        raise ValueError("one target per string is required")
    if m == 0:
        return np.zeros((0, 0), dtype=np.int64)

    non_identity = packed.x | packed.z
    rows = np.arange(m)
    word_index = targets_arr // WORD_BITS
    target_bit = np.uint64(1) << (targets_arr % WORD_BITS).astype(np.uint64)
    on_target = (non_identity[rows, word_index] & target_bit) != 0
    if not on_target.all():
        bad = int(np.argmin(on_target))
        raise ValueError(
            f"target {int(targets_arr[bad])} not in support of "
            f"{packed.to_strings()[bad].to_label()}"
        )

    # Per-vertex masks with the own target bit cleared.
    cleared = non_identity.copy()
    cleared[rows, word_index] &= ~target_bit
    # Per-vertex scalars in one code: bit 0 = X component on the own target,
    # bit 1 = exactly Z there, the rest = Pauli weight.  Good collisions on
    # the shared target: both carry an X component (X/Y against X/Y), or
    # both are exactly Z, i.e. the two codes share a low bit.
    x_at = (packed.x[rows, word_index] & target_bit) != 0
    z_at = (packed.z[rows, word_index] & target_bit) != 0
    weights = np.bitwise_count(non_identity).sum(axis=-1, dtype=np.int64)
    code = x_at | ((z_at & ~x_at).astype(np.int64) << 1) | (weights << 2)

    # Every ordered same-target pair (a, b): group the vertices by target and
    # pair each one with every member of its group.
    order = np.argsort(targets_arr, kind="stable")
    _, starts, sizes = np.unique(
        targets_arr[order], return_index=True, return_counts=True
    )
    pairs_per_position = np.repeat(sizes, sizes)
    a = np.repeat(order, pairs_per_position)
    first_pair = np.cumsum(pairs_per_position) - pairs_per_position
    offset = np.arange(a.size) - np.repeat(first_pair, pairs_per_position)
    b = order[np.repeat(np.repeat(starts, sizes), pairs_per_position) + offset]

    # ω = 1 for every qubit where both strings are non-identity (target
    # excluded) ...
    shared = np.take(cleared, a, axis=0) & np.take(cleared, b, axis=0)
    both = np.bitwise_count(shared).sum(axis=-1, dtype=np.int64)
    # ... plus 1 more where the collision is matching (equal non-identity
    # labels) *and* the target collision is good.
    differ = (np.take(packed.x, a, axis=0) ^ np.take(packed.x, b, axis=0)) | (
        np.take(packed.z, a, axis=0) ^ np.take(packed.z, b, axis=0)
    )
    matching = np.bitwise_count(shared & ~differ).sum(axis=-1, dtype=np.int64)
    code_a, code_b = code[a], code[b]
    saved = both + np.where(code_a & code_b & 3, matching, 0)

    # The saving can never exceed the CNOTs present at the interface.
    interface_cnots = np.maximum((code_a >> 2) + (code_b >> 2) - 2, 0)
    matrix = np.zeros((m, m), dtype=np.int64)
    matrix[a, b] = np.minimum(saved, interface_cnots)
    return matrix


class SameTargetSavings:
    """The ω-rule savings between strings that share a target, from string pairs.

    :func:`interface_reduction_matrix` scores every pair of targeted
    vertices; here the savings come from two ``(m, m)`` string-pair tables
    and one letter per string and qubit, and :meth:`row` assembles the
    savings after one vertex on demand.  With ``B`` the support overlap of
    strings ``i`` and ``j`` and ``E`` the number of qubits where both carry
    the same non-identity letter:

    * ``both[i, j] = B - 1`` — the shared qubits other than the target;
    * ``equal[i, j] = E``;
    * ``letters[q, i]`` — ``x + 2 z`` of string ``i`` on qubit ``q``, so
      letters are equal iff the codes are, and its class is the X
      component ``x``.

    A target collision is good when both letters carry an X component or
    both are exactly Z, i.e. the classes agree; then every matching shared
    qubit but the target saves one more CNOT.  The saving of ``(j, t)``
    after ``(i, t)`` is therefore ``both + equal - [letters equal on t]``
    when the collision is good and ``both`` otherwise (unequal classes never
    carry equal letters).  :func:`interface_reduction_matrix` caps a saving
    at the interface CNOTs ``w_i + w_j - 2``; the cap never binds when ``t``
    lies in both supports, since the saving is at most
    ``2 both ≤ 2 (min(w_i, w_j) - 1) ≤ w_i + w_j - 2``.
    """

    def __init__(self, strings: Packable):
        packed = _as_packed(strings)
        x, z = packed.x, packed.z
        support = x | z
        shared = support[:, None, :] & support[None, :, :]
        differ = (x[:, None, :] ^ x[None, :, :]) | (z[:, None, :] ^ z[None, :, :])
        self.both = np.bitwise_count(shared).sum(axis=-1, dtype=np.int64) - 1
        self.equal = np.bitwise_count(shared & ~differ).sum(axis=-1, dtype=np.int64)
        classes = _unpack_planes(x, packed.n_qubits).T
        self.letters = classes + 2 * _unpack_planes(z, packed.n_qubits).T
        # [q, c, j]: string j's letter on q shares the class of / equals the
        # letter code c, as 0/1 ints for the row arithmetic.
        codes = np.arange(4)[:, None]
        self._same_class = (classes[:, None, :] == (codes & 1)).astype(np.int64)
        self._same_letter = (self.letters[:, None, :] == codes).astype(np.int64)

    def row(self, source: int, target: int) -> np.ndarray:
        """Saving of ``(j, target)`` right after ``(source, target)``, for every ``j``.

        Entries are meaningful where ``target`` lies in the support of both
        ``source`` and ``j``.
        """
        letter = self.letters[target, source]
        return (
            self.both[source]
            + self.equal[source] * self._same_class[target, letter]
            - self._same_letter[target, letter]
        )
