"""Immutable n-qubit Pauli strings over a symplectic (bit-packed) core.

A :class:`PauliString` is a tensor product of single-qubit Pauli matrices
``I, X, Y, Z`` on a fixed number of qubits.  It is the basic object the
paper's circuit synthesis and sorting techniques operate on: each Trotterized
summand of a fermionic excitation term becomes ``exp(-i θ/2 P)`` for a Pauli
string ``P``.

Internally every string is stored in the *symplectic* representation: two
arbitrary-precision integers ``x`` and ``z`` whose bit ``q`` records whether
qubit ``q`` carries an X component (X or Y) respectively a Z component (Z or
Y).  Products, commutation checks and weight/support queries are then whole-
register bit operations instead of per-qubit table lookups, which is what
makes the Γ-search and GTSP cost scans tractable at molecule scale (see
:mod:`repro.operators.symplectic` for the batched numpy counterpart).

Phase convention: a :class:`PauliString` itself is always phaseless — the
represented operator is exactly ``⊗_q σ_q`` with ``σ(x=1, z=1) = Y`` (not
``XZ``).  Operations that can produce phases (:meth:`multiply`, Clifford
conjugation in :mod:`repro.verify.tableau`) return the phase separately,
so ``P1 · P2 = phase · P3`` with ``phase ∈ {±1, ±i}``.

The public label API is unchanged: labels read qubit 0 first, matrix exports
place qubit 0 as the most significant bit of the computational-basis index,
and equality/hash/ordering coincide with the historical label-tuple
semantics (lexicographic in ``I < X < Y < Z``), so strings are hashable
dictionary keys and sort deterministically when building circuits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

#: The four single-qubit Pauli labels in canonical order.
PAULI_LABELS = ("I", "X", "Y", "Z")

#: Single-qubit Pauli matrices used when exporting to dense/sparse form.
PAULI_MATRICES = {
    "I": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

#: Multiplication table: (left, right) -> (phase, product_label).  Kept for
#: reference/compatibility; :meth:`PauliString.multiply` uses bit arithmetic.
_PAULI_PRODUCTS: Dict[Tuple[str, str], Tuple[complex, str]] = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}

#: label -> (x bit, z bit) in the symplectic convention (Y carries both).
_LABEL_TO_BITS: Dict[str, Tuple[int, int]] = {
    "I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1),
}

#: (x bit, z bit) -> label; index is ``x + 2 z``.
_BITS_TO_LABEL = ("I", "X", "Z", "Y")

#: Powers of i, indexed by the phase exponent mod 4.
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class PauliString:
    """An immutable Pauli string on ``n_qubits`` qubits.

    Parameters
    ----------
    labels:
        Either a string such as ``"IXYZ"`` or a sequence of single-character
        labels.  Qubit 0 corresponds to the first character.
    """

    __slots__ = ("_n", "_x", "_z", "_labels", "_hash")

    def __init__(self, labels: Sequence[str] | str):
        x = 0
        z = 0
        n = 0
        for label in labels:
            try:
                xbit, zbit = _LABEL_TO_BITS[label]
            except (KeyError, TypeError):
                raise ValueError(
                    f"invalid Pauli label {label!r}; expected one of {PAULI_LABELS}"
                ) from None
            x |= xbit << n
            z |= zbit << n
            n += 1
        self._n = n
        self._x = x
        self._z = z
        self._labels: Tuple[str, ...] | None = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bitmasks(cls, n_qubits: int, x: int, z: int) -> "PauliString":
        """Build a string directly from packed symplectic bit-masks.

        Bit ``q`` of ``x`` (``z``) marks an X (Z) component on qubit ``q``; a
        qubit with both bits set carries Y.  This is the fast constructor the
        fermion-to-qubit transforms use to emit strings without going through
        labels.
        """
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        mask = (1 << n_qubits) - 1
        if (x | z) & ~mask:
            raise ValueError(
                f"bit-masks act outside the {n_qubits}-qubit register"
            )
        return cls._from_masks(n_qubits, x, z)

    @classmethod
    def _from_masks(cls, n_qubits: int, x: int, z: int) -> "PauliString":
        """Unchecked internal constructor (masks must already fit the register)."""
        string = cls.__new__(cls)
        string._n = n_qubits
        string._x = x
        string._z = z
        string._labels = None
        string._hash = None
        return string

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        """Return the identity string on ``n_qubits`` qubits."""
        return cls._from_masks(n_qubits, 0, 0)

    @classmethod
    def from_dict(cls, n_qubits: int, paulis: Dict[int, str]) -> "PauliString":
        """Build a string from a ``{qubit: label}`` mapping (missing qubits are I)."""
        x = 0
        z = 0
        for qubit, label in paulis.items():
            if not 0 <= qubit < n_qubits:
                raise ValueError(f"qubit index {qubit} out of range for {n_qubits} qubits")
            try:
                xbit, zbit = _LABEL_TO_BITS[label]
            except (KeyError, TypeError):
                raise ValueError(
                    f"invalid Pauli label {label!r}; expected one of {PAULI_LABELS}"
                ) from None
            x |= xbit << qubit
            z |= zbit << qubit
        return cls._from_masks(n_qubits, x, z)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, label: str) -> "PauliString":
        """Return a weight-one string with ``label`` on ``qubit``."""
        return cls.from_dict(n_qubits, {qubit: label})

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_qubits(self) -> int:
        """Number of qubits the string is defined on."""
        return self._n

    @property
    def x_mask(self) -> int:
        """Packed X-component bit-mask (bit ``q`` set iff qubit ``q`` is X or Y)."""
        return self._x

    @property
    def z_mask(self) -> int:
        """Packed Z-component bit-mask (bit ``q`` set iff qubit ``q`` is Z or Y)."""
        return self._z

    @property
    def labels(self) -> Tuple[str, ...]:
        """Tuple of per-qubit labels, qubit 0 first."""
        cached = self._labels
        if cached is None:
            x, z = self._x, self._z
            cached = tuple(
                _BITS_TO_LABEL[((x >> q) & 1) | (((z >> q) & 1) << 1)]
                for q in range(self._n)
            )
            self._labels = cached
        return cached

    def __getitem__(self, qubit: int) -> str:
        if not -self._n <= qubit < self._n:
            raise IndexError("qubit index out of range")
        if qubit < 0:
            qubit += self._n
        return _BITS_TO_LABEL[((self._x >> qubit) & 1) | (((self._z >> qubit) & 1) << 1)]

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self.labels)

    @property
    def weight(self) -> int:
        """Number of non-identity factors (the string's Pauli weight)."""
        return (self._x | self._z).bit_count()

    @property
    def support(self) -> Tuple[int, ...]:
        """Qubits on which the string acts non-trivially, ascending."""
        mask = self._x | self._z
        qubits = []
        while mask:
            low = mask & -mask
            qubits.append(low.bit_length() - 1)
            mask ^= low
        return tuple(qubits)

    @property
    def is_identity(self) -> bool:
        """True if every factor is the identity."""
        return not (self._x | self._z)

    def to_label(self) -> str:
        """Return the string form, e.g. ``"IXYZ"``."""
        return "".join(self.labels)

    # ------------------------------------------------------------------
    # Algebraic operations
    # ------------------------------------------------------------------
    def multiply(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Multiply two strings, returning ``(phase, product)`` with product a PauliString.

        In the symplectic picture the product masks are plain XORs; the phase
        is ``i`` to the power ``|Y1| + |Y2| - |Y3| + 2 |z1 ∧ x2|  (mod 4)``,
        which follows from writing each factor as ``i^{x z} X^x Z^z``.
        """
        if self._n != other._n:
            raise ValueError("cannot multiply Pauli strings on different qubit counts")
        x1, z1 = self._x, self._z
        x2, z2 = other._x, other._z
        x3 = x1 ^ x2
        z3 = z1 ^ z2
        exponent = (
            (x1 & z1).bit_count()
            + (x2 & z2).bit_count()
            - (x3 & z3).bit_count()
            + 2 * (z1 & x2).bit_count()
        )
        return _PHASES[exponent & 3], PauliString._from_masks(self._n, x3, z3)

    def commutes_with(self, other: "PauliString") -> bool:
        """True if the two strings commute as operators.

        Two Pauli strings commute iff their symplectic inner product
        ``x1·z2 + z1·x2`` vanishes mod 2.
        """
        if self._n != other._n:
            raise ValueError("cannot compare Pauli strings on different qubit counts")
        return ((self._x & other._z) ^ (self._z & other._x)).bit_count() % 2 == 0

    def overlap(self, other: "PauliString") -> Tuple[int, ...]:
        """Qubits where both strings act non-trivially."""
        mask = (self._x | self._z) & (other._x | other._z)
        qubits = []
        while mask:
            low = mask & -mask
            qubits.append(low.bit_length() - 1)
            mask ^= low
        return tuple(qubits)

    # ------------------------------------------------------------------
    # Symplectic (binary) representation
    # ------------------------------------------------------------------
    def to_symplectic(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the binary ``(x, z)`` vectors of the string.

        ``x[i] = 1`` if qubit ``i`` carries X or Y; ``z[i] = 1`` if it carries
        Z or Y.  This representation is what the Clifford (CNOT-circuit)
        conjugation in the generalized fermion-to-qubit transform acts on.
        """
        n = self._n
        x = np.fromiter(((self._x >> q) & 1 for q in range(n)), dtype=np.uint8, count=n)
        z = np.fromiter(((self._z >> q) & 1 for q in range(n)), dtype=np.uint8, count=n)
        return x, z

    @classmethod
    def from_symplectic(cls, x: Sequence[int], z: Sequence[int]) -> "PauliString":
        """Build a string from binary ``(x, z)`` vectors (phase ignored)."""
        if len(x) != len(z):
            raise ValueError("x and z vectors must have the same length")
        x_mask = 0
        z_mask = 0
        for qubit, (xi, zi) in enumerate(zip(x, z)):
            x_mask |= (int(xi) & 1) << qubit
            z_mask |= (int(zi) & 1) << qubit
        return cls._from_masks(len(x), x_mask, z_mask)

    def index_masks(self) -> Tuple[int, int]:
        """The ``(x, z)`` masks re-indexed into computational-basis bit order.

        Qubit 0 is the most significant bit of the basis index, so qubit ``q``
        maps to index bit ``n - 1 - q``.  These are the masks the simulator's
        permutation-based Pauli application uses.
        """
        n = self._n
        x_idx = 0
        z_idx = 0
        for q in range(n):
            x_idx |= ((self._x >> q) & 1) << (n - 1 - q)
            z_idx |= ((self._z >> q) & 1) << (n - 1 - q)
        return x_idx, z_idx

    # ------------------------------------------------------------------
    # Matrix export
    # ------------------------------------------------------------------
    def signed_permutation(self) -> Tuple[np.ndarray, np.ndarray]:
        """The string as a signed permutation: ``(rows, values)`` per column.

        A Pauli string acts on computational basis states as
        ``P|b⟩ = i^{|Y|} (-1)^{|z ∧ b|} |b ⊕ x⟩`` (index bit order, qubit 0
        most significant).  The return arrays give, for every basis column
        ``c``, the single non-zero row ``rows[c] = c ⊕ x`` and its value
        ``values[c]``.  This is the kernel behind :meth:`to_sparse`.
        """
        dim = 1 << self._n
        columns = np.arange(dim, dtype=np.int64)
        x_idx, z_idx = self.index_masks()
        rows = columns ^ np.int64(x_idx)
        signs = 1.0 - 2.0 * (
            np.bitwise_count(columns & np.int64(z_idx)).astype(np.int64) & 1
        )
        values = (_PHASES[(self._x & self._z).bit_count() & 3] * signs).astype(complex)
        return rows, values

    def to_sparse(self) -> sparse.csr_matrix:
        """Return the ``2**n x 2**n`` sparse matrix of the string.

        Qubit 0 is the most significant bit of the computational basis index,
        matching the little-endian-on-paper / big-endian-in-binary convention
        used throughout the simulator subpackage.  Built from
        :meth:`signed_permutation` (one entry per column) instead of
        Kronecker products.
        """
        from scipy import sparse

        dim = 1 << self._n
        rows, values = self.signed_permutation()
        return sparse.csr_matrix(
            (values, (rows, np.arange(dim, dtype=np.int64))),
            shape=(dim, dim),
            dtype=complex,
        )

    def to_dense(self) -> np.ndarray:
        """Return the dense matrix of the string (small systems only)."""
        return self.to_sparse().toarray()

    # ------------------------------------------------------------------
    # Manipulation helpers
    # ------------------------------------------------------------------
    def with_label(self, qubit: int, label: str) -> "PauliString":
        """Return a copy with the factor on ``qubit`` replaced by ``label``."""
        if not 0 <= qubit < self._n:
            raise IndexError("qubit index out of range")
        try:
            xbit, zbit = _LABEL_TO_BITS[label]
        except (KeyError, TypeError):
            raise ValueError(
                f"invalid Pauli label {label!r}; expected one of {PAULI_LABELS}"
            ) from None
        bit = 1 << qubit
        x = (self._x & ~bit) | (xbit << qubit)
        z = (self._z & ~bit) | (zbit << qubit)
        return PauliString._from_masks(self._n, x, z)

    def restricted_to(self, qubits: Sequence[int]) -> "PauliString":
        """Return the string restricted to the given ordered subset of qubits."""
        x = 0
        z = 0
        for position, qubit in enumerate(qubits):
            if not -self._n <= qubit < self._n:
                raise IndexError("qubit index out of range")
            if qubit < 0:
                qubit += self._n
            x |= ((self._x >> qubit) & 1) << position
            z |= ((self._z >> qubit) & 1) << position
        return PauliString._from_masks(len(qubits), x, z)

    def padded(self, n_qubits: int) -> "PauliString":
        """Return the string extended with identities up to ``n_qubits`` qubits."""
        if n_qubits < self._n:
            raise ValueError("cannot pad to fewer qubits")
        return PauliString._from_masks(n_qubits, self._x, self._z)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self._n == other._n and self._x == other._x and self._z == other._z
        )

    def __lt__(self, other: "PauliString") -> bool:
        # Lexicographic comparison of the label tuples (qubit 0 first) with
        # I < X < Y < Z, evaluated on the packed masks: locate the lowest
        # differing qubit and compare its 2-bit sort keys.
        common = min(self._n, other._n)
        mask = (1 << common) - 1
        differing = ((self._x ^ other._x) | (self._z ^ other._z)) & mask
        if not differing:
            return self._n < other._n
        qubit = (differing & -differing).bit_length() - 1
        return _sort_key(self._x, self._z, qubit) < _sort_key(other._x, other._z, qubit)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self._n, self._x, self._z))
            self._hash = cached
        return cached

    def __repr__(self) -> str:
        return f"PauliString('{self.to_label()}')"


def _sort_key(x: int, z: int, qubit: int) -> int:
    """2-bit per-qubit sort key realizing the label order I < X < Y < Z."""
    xbit = (x >> qubit) & 1
    zbit = (z >> qubit) & 1
    return xbit ^ (3 * zbit)
