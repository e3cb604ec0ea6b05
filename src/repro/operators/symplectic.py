"""Batched symplectic (bit-packed) Pauli operations over numpy.

:class:`~repro.operators.pauli.PauliString` stores one string as two
arbitrary-precision bit-mask integers.  The compilation hot paths — the GTSP
edge weights of the advanced sorting, its seed tours and the Γ-search inner
loop — need those operations over *many* strings at once.  This module
packs a string collection into ``(m, words)`` ``uint64`` arrays (64 qubits
per word) and evaluates them as whole-array numpy bit operations:

* :func:`weight_vector` / :func:`support_matrix` — Pauli weights and
  supports,
* :class:`SameTargetSavings` — the ω-rule CNOT savings of Sec. III-B between
  strings that share a target, from string-pair tables: one row of
  same-target vertices at a time (the greedy walk of
  :mod:`repro.core.advanced_sorting` and the Γ-search objective), or every
  pair of targeted vertices at once (the GTSP edge weights, the term-block
  orders and the sorted sequence's count).  The tables are built once per
  :class:`PackedPaulis` (:attr:`PackedPaulis.same_target_savings`), so every
  reader of one string set shares them,
* :func:`routed_vertex_cost_vector` — the steered ladder cost of targeted
  strings on a device,
* :func:`linear_encoding_image` — the strings conjugated by the CNOT
  circuit of a linear encoding Γ, as a GF(2) map of the planes; its caller,
  :meth:`~repro.transforms.LinearEncodingTransform.conjugate_planes`, adds
  the sign, and :meth:`repro.core.terms_to_paulis.RotationPlanes.encoded`
  (every compile and every Γ-search candidate) goes through it,
* :func:`lexicographic_order` — the :class:`PauliString` sort order.

All functions accept either a :class:`PackedPaulis` or any iterable of
:class:`PauliString` (packed on the fly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.operators.pauli import PauliString

#: Qubits per packed word.
WORD_BITS = 64


def _n_words(n_qubits: int) -> int:
    """Packed words per plane for ``n_qubits`` qubits (at least one)."""
    return max(1, -(-n_qubits // WORD_BITS))


def _pack_masks(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack arbitrary-precision bit-mask ints into an ``(m, n_words)`` uint64 array."""
    width = 8 * n_words
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), n_words).astype(np.uint64)


def _unpack_masks(plane: np.ndarray) -> List[int]:
    """An ``(m, n_words)`` uint64 plane as ``m`` arbitrary-precision bit-mask ints."""
    width = 8 * plane.shape[1]
    raw = np.ascontiguousarray(plane, dtype="<u8").tobytes()
    return [int.from_bytes(raw[start:start + width], "little")
            for start in range(0, len(raw), width)]


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
        return cls.from_masks(n, [s.x_mask for s in strings], [s.z_mask for s in strings])

    @classmethod
    def from_masks(
        cls, n_qubits: int, x_masks: Sequence[int], z_masks: Sequence[int]
    ) -> "PackedPaulis":
        """Pack the strings with symplectic bit-masks ``(x_masks[i], z_masks[i])``.

        Every mask must be non-negative and fit the register (unchecked
        beyond the packed word count).
        """
        n_words = _n_words(n_qubits)
        return cls(
            n_qubits=n_qubits,
            x=_pack_masks(x_masks, n_words),
            z=_pack_masks(z_masks, n_words),
        )

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_words(self) -> int:
        return self.x.shape[1]

    def take(self, rows: Sequence[int]) -> "PackedPaulis":
        """The strings at ``rows``, in that order (repeats allowed)."""
        return PackedPaulis(self.n_qubits, self.x[rows], self.z[rows])

    @cached_property
    def same_target_savings(self) -> "SameTargetSavings":
        """The :class:`SameTargetSavings` tables of these strings, built once."""
        return SameTargetSavings(self)

    def to_strings(self) -> List[PauliString]:
        """Unpack back into :class:`PauliString` objects."""
        return [
            PauliString.from_bitmasks(self.n_qubits, x, z)
            for x, z in zip(_unpack_masks(self.x), _unpack_masks(self.z))
        ]


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


def weight_vector(strings: Packable) -> np.ndarray:
    """Pauli weight of every string, as an ``(m,)`` int array."""
    packed = _as_packed(strings)
    return np.bitwise_count(packed.x | packed.z).sum(axis=-1, dtype=np.int64)


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


class SameTargetSavings:
    """The ω-rule savings between strings that share a target, from string pairs.

    The savings of every targeted vertex pair come from two ``(m, m)``
    string-pair tables and one letter per string and qubit: :meth:`row`
    assembles the savings after one vertex, :meth:`pairs` those between
    every pair of a vertex list.  With ``B`` the support overlap of strings
    ``i`` and ``j`` and ``E`` the number of qubits where both carry the same
    non-identity letter:

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
    carry equal letters).  The scalar reference
    :func:`repro.circuits.interface_cnot_reduction` caps a saving at the
    interface CNOTs ``w_i + w_j - 2``; the cap never binds when ``t`` lies
    in both supports, since the saving is at most
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

    def pairs(self, rows: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Savings between the targeted vertices ``(rows[k], targets[k])``.

        Entry ``[a, b]`` is the saving of vertex ``b`` right after vertex
        ``a``, and 0 when their targets differ.  A string may appear in
        several vertices with different targets.  Every target must lie in
        its string's support.  Only the same-target pairs are evaluated, as
        ``both + equal·[classes agree on t] - [letters equal on t]``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        if rows.shape != targets.shape:
            raise ValueError("one target per row is required")
        codes = np.zeros(rows.shape, dtype=self.letters.dtype)
        on_register = (targets >= 0) & (targets < self.letters.shape[0])
        codes[on_register] = self.letters[targets[on_register], rows[on_register]]
        if not codes.all():
            bad = int(np.argmin(codes))
            label = "".join("IXZY"[code] for code in self.letters[:, rows[bad]])
            raise ValueError(f"target {int(targets[bad])} not in support of {label}")
        # Every ordered same-target pair (a, b): sort the vertices by target
        # and pair each one with every member of its group.
        order = np.argsort(targets, kind="stable")
        starts = np.flatnonzero(np.diff(targets[order], prepend=-1))
        sizes = np.diff(np.append(starts, rows.size))
        per_vertex = np.repeat(sizes, sizes)
        a = np.repeat(order, per_vertex)
        offset = np.arange(a.size) - np.repeat(np.cumsum(per_vertex) - per_vertex, per_vertex)
        b = order[np.repeat(np.repeat(starts, sizes), per_vertex) + offset]
        strings = rows[a] * len(self.both) + rows[b]
        code_a, code_b = codes[a], codes[b]
        matrix = np.zeros((rows.size, rows.size), dtype=np.int64)
        matrix.flat[a * rows.size + b] = (
            self.both.take(strings)
            + self.equal.take(strings) * ((code_a & 1) == (code_b & 1))
            - (code_a == code_b)
        )
        return matrix
