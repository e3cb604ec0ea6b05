"""Bit-packed Clifford/stabilizer tableau simulation with phase tracking.

A Clifford unitary ``U`` is determined, up to global phase, by its
conjugation action on the ``2n`` Pauli generators: ``U X_q U† = ±P`` and
``U Z_q U† = ±P'``.  :class:`CliffordTableau` stores those images in the
``uint64`` bit-plane layout of :mod:`repro.operators.symplectic` — one packed
row per generator image (bit ``q`` of word ``q // 64`` describes qubit ``q``)
plus one sign bit per row — and updates them gate by gate with whole-column
bitwise operations.

Because the Pauli matrices together with the identity span the full matrix
algebra, two Clifford circuits have equal tableaus **iff** they implement the
same unitary up to global phase: ``V† U`` commutes with every Pauli, hence is
a scalar.  Tableau equality is therefore exactly the verdict of
``Circuit.equals_up_to_global_phase`` — at ``O(n²)`` bits instead of
``O(4**n)`` amplitudes.

The verifier shares no conjugation code with the compiler it checks: every
gate rule, the CNOT sign rule :func:`cnot_sign_flip` included, lives here
and is golden-tested against direct matrix conjugation in
``tests/verify/test_clifford_golden.py``.

Rotation gates at multiples of ``π/2`` (within :data:`CLIFFORD_ANGLE_ATOL`)
are Clifford up to global phase and are absorbed via named-gate
decompositions (``RZ(π/2) ≅ S``, ``RX(π) ≅ X``, ``RY(θ) = S·RX(θ)·S†`` …);
any other rotation — and ``T``/``TDG`` — raises :class:`NotCliffordError`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.operators.pauli import PauliString
from repro.operators.symplectic import WORD_BITS

#: Parameter-free gate names with native tableau update rules.
CLIFFORD_GATE_NAMES = frozenset(
    {"I", "X", "Y", "Z", "H", "S", "SDG", "SQRTX", "SQRTXDG", "CNOT", "CZ", "SWAP"}
)

#: Absolute tolerance under which a rotation angle counts as a multiple of π/2.
CLIFFORD_ANGLE_ATOL = 1e-9

_HALF_PI = math.pi / 2.0

_ONE = np.uint64(1)

#: Named decompositions of Clifford-angle rotations, in circuit order, by
#: ``k = angle / (π/2) mod 4``.  ``RY(θ) = S·RX(θ)·S†`` (as matrices), so its
#: circuit-order decomposition wraps the RX decomposition in ``SDG … S``.
_RZ_DECOMP = {0: (), 1: ("S",), 2: ("Z",), 3: ("SDG",)}
_RX_DECOMP = {0: (), 1: ("SQRTX",), 2: ("X",), 3: ("SQRTXDG",)}
_RY_DECOMP = {k: (("SDG",) + _RX_DECOMP[k] + ("S",)) if k else () for k in range(4)}
_ROTATION_DECOMP = {"RZ": _RZ_DECOMP, "RX": _RX_DECOMP, "RY": _RY_DECOMP}


def cnot_sign_flip(x_c, z_c, x_t, z_t):
    """Sign-flip indicator of CNOT conjugation on 0/1 component bits.

    Evaluates ``x_c z_t (x_t ⊕ z_c ⊕ 1)``: under ``X_c → X_c X_t`` and
    ``Z_t → Z_c Z_t`` only ``X⊗Z → −Y⊗Y`` and ``Y⊗Y → −X⊗Z`` pick up a sign.
    Pure bit arithmetic, so it works on Python ints and on numpy 0/1 arrays.
    """
    return x_c & z_t & (x_t ^ z_c ^ 1)


class NotCliffordError(ValueError):
    """Raised when a gate or circuit is outside the Clifford group."""


def clifford_rotation_index(
    angle: float, atol: float = CLIFFORD_ANGLE_ATOL
) -> Optional[int]:
    """``k mod 4`` if ``angle ≅ k·π/2`` within ``atol``, else ``None``."""
    k = round(angle / _HALF_PI)
    if abs(angle - k * _HALF_PI) <= atol:
        return k % 4
    return None


def is_clifford_gate(gate: Gate, atol: float = CLIFFORD_ANGLE_ATOL) -> bool:
    """True if the gate is Clifford (up to global phase)."""
    if gate.name in CLIFFORD_GATE_NAMES:
        return True
    if gate.name in _ROTATION_DECOMP:
        return clifford_rotation_index(gate.parameter, atol) is not None
    return False


def is_clifford_circuit(circuit: Circuit, atol: float = CLIFFORD_ANGLE_ATOL) -> bool:
    """True if every gate of the circuit is Clifford (up to global phase)."""
    return all(is_clifford_gate(gate, atol) for gate in circuit)


def elementary_gates(
    gate: Gate, atol: float = CLIFFORD_ANGLE_ATOL
) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """Decompose a Clifford gate into named elementary ops, in circuit order.

    Raises :class:`NotCliffordError` for ``T``/``TDG`` and rotations away
    from multiples of ``π/2``.
    """
    if gate.name in CLIFFORD_GATE_NAMES:
        yield gate.name, gate.qubits
        return
    decomp = _ROTATION_DECOMP.get(gate.name)
    if decomp is None:
        raise NotCliffordError(f"gate {gate!r} is not a Clifford operation")
    k = clifford_rotation_index(gate.parameter, atol)
    if k is None:
        raise NotCliffordError(
            f"rotation {gate!r} is not at a multiple of π/2 (Clifford angle)"
        )
    for name in decomp[k]:
        yield name, gate.qubits


class CliffordTableau:
    """Conjugation tableau of a Clifford unitary over packed bit-planes.

    Rows ``0 … n-1`` hold the images of ``X_q``, rows ``n … 2n-1`` the images
    of ``Z_q``; ``sign[row]`` is the ``(-1)^s`` exponent bit of the image.
    """

    __slots__ = ("n_qubits", "n_words", "x", "z", "sign")

    def __init__(self, n_qubits: int, x: np.ndarray, z: np.ndarray, sign: np.ndarray):
        self.n_qubits = int(n_qubits)
        self.n_words = x.shape[1]
        self.x = x
        self.z = z
        self.sign = sign

    @classmethod
    def identity(cls, n_qubits: int) -> "CliffordTableau":
        """The tableau of the identity circuit on ``n_qubits`` qubits."""
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        n_words = max(1, -(-n_qubits // WORD_BITS))
        x = np.zeros((2 * n_qubits, n_words), dtype=np.uint64)
        z = np.zeros((2 * n_qubits, n_words), dtype=np.uint64)
        sign = np.zeros(2 * n_qubits, dtype=np.uint8)
        rows = np.arange(n_qubits)
        words = rows // WORD_BITS
        bits = (rows % WORD_BITS).astype(np.uint64)
        x[rows, words] = _ONE << bits
        z[rows + n_qubits, words] = _ONE << bits
        return cls(n_qubits, x, z, sign)

    @classmethod
    def from_circuit(
        cls, circuit: Circuit, atol: float = CLIFFORD_ANGLE_ATOL
    ) -> "CliffordTableau":
        """Tableau of a Clifford circuit; raises :class:`NotCliffordError`."""
        tableau = cls.identity(circuit.n_qubits)
        for gate in circuit:
            tableau.apply_gate(gate, atol)
        return tableau

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(
            self.n_qubits, self.x.copy(), self.z.copy(), self.sign.copy()
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def _column(self, plane: np.ndarray, qubit: int) -> np.ndarray:
        word, bit = divmod(qubit, WORD_BITS)
        return (plane[:, word] >> np.uint64(bit)) & _ONE

    def _write_column(self, plane: np.ndarray, qubit: int, bits: np.ndarray) -> None:
        word, bit = divmod(qubit, WORD_BITS)
        shift = np.uint64(bit)
        plane[:, word] = (plane[:, word] & ~(_ONE << shift)) | (
            bits.astype(np.uint64) << shift
        )

    # ------------------------------------------------------------------
    # Gate application: frame' = gate · frame (whole-column updates)
    # ------------------------------------------------------------------
    def apply_gate(self, gate: Gate, atol: float = CLIFFORD_ANGLE_ATOL) -> None:
        """Left-compose a gate: the tableau becomes that of ``gate · U``."""
        for name, qubits in elementary_gates(gate, atol):
            self._apply_elementary(name, qubits)

    def _apply_elementary(self, name: str, qubits: Tuple[int, ...]) -> None:
        x, z, sign = self.x, self.z, self.sign
        if name == "I":
            return
        if len(qubits) == 1:
            q = qubits[0]
            xq = self._column(x, q)
            zq = self._column(z, q)
            if name == "H":
                sign ^= (xq & zq).astype(np.uint8)
                self._write_column(x, q, zq)
                self._write_column(z, q, xq)
            elif name == "S":
                sign ^= (xq & zq).astype(np.uint8)
                self._write_column(z, q, xq ^ zq)
            elif name == "SDG":
                sign ^= (xq & (zq ^ _ONE)).astype(np.uint8)
                self._write_column(z, q, xq ^ zq)
            elif name == "SQRTX":
                sign ^= (zq & (xq ^ _ONE)).astype(np.uint8)
                self._write_column(x, q, xq ^ zq)
            elif name == "SQRTXDG":
                sign ^= (zq & xq).astype(np.uint8)
                self._write_column(x, q, xq ^ zq)
            elif name == "X":
                sign ^= zq.astype(np.uint8)
            elif name == "Y":
                sign ^= (xq ^ zq).astype(np.uint8)
            elif name == "Z":
                sign ^= xq.astype(np.uint8)
            else:  # pragma: no cover - guarded by elementary_gates
                raise NotCliffordError(f"no tableau rule for gate {name!r}")
            return
        a, b = qubits
        if name == "CNOT":
            xc, zc = self._column(x, a), self._column(z, a)
            xt, zt = self._column(x, b), self._column(z, b)
            sign ^= cnot_sign_flip(xc, zc, xt, zt).astype(np.uint8)
            self._write_column(x, b, xt ^ xc)
            self._write_column(z, a, zc ^ zt)
        elif name == "CZ":
            xa, za = self._column(x, a), self._column(z, a)
            xb, zb = self._column(x, b), self._column(z, b)
            sign ^= (xa & xb & (za ^ zb)).astype(np.uint8)
            self._write_column(z, a, za ^ xb)
            self._write_column(z, b, zb ^ xa)
        elif name == "SWAP":
            xa, za = self._column(x, a), self._column(z, a)
            xb, zb = self._column(x, b), self._column(z, b)
            self._write_column(x, a, xb)
            self._write_column(z, a, zb)
            self._write_column(x, b, xa)
            self._write_column(z, b, za)
        else:  # pragma: no cover - guarded by elementary_gates
            raise NotCliffordError(f"no tableau rule for gate {name!r}")

    # ------------------------------------------------------------------
    # Rows as packed integers
    # ------------------------------------------------------------------
    def _row_masks(self, row: int) -> Tuple[int, int]:
        x = 0
        z = 0
        for word in range(self.n_words - 1, -1, -1):
            x = (x << WORD_BITS) | int(self.x[row, word])
            z = (z << WORD_BITS) | int(self.z[row, word])
        return x, z

    def _set_row(self, row: int, sign_bit: int, x: int, z: int) -> None:
        word_mask = (1 << WORD_BITS) - 1
        for word in range(self.n_words):
            self.x[row, word] = (x >> (word * WORD_BITS)) & word_mask
            self.z[row, word] = (z >> (word * WORD_BITS)) & word_mask
        self.sign[row] = sign_bit

    # ------------------------------------------------------------------
    # Conjugation of arbitrary Paulis
    # ------------------------------------------------------------------
    def conjugate_masks(self, x: int, z: int) -> Tuple[int, int, int]:
        """Image ``U P U†`` of the Hermitian Pauli with packed masks ``(x, z)``.

        Returns ``(sign, x', z')`` with ``sign ∈ {+1, -1}``.  The Pauli is
        expanded as ``P = i^{|x∧z|} · Π_q X_q^{x_q} · Π_q Z_q^{z_q}`` and the
        stored generator images are multiplied out with exact ``i``-power
        bookkeeping; the result of conjugating a Hermitian Pauli by a
        Clifford is always ``±`` a Hermitian Pauli.
        """
        n = self.n_qubits
        exponent = (x & z).bit_count()
        ax = 0
        az = 0
        for offset, mask in ((0, x), (n, z)):
            while mask:
                low = mask & -mask
                qubit = low.bit_length() - 1
                mask ^= low
                row = offset + qubit
                rx, rz = self._row_masks(row)
                exponent += (
                    2 * int(self.sign[row])
                    + (rx & rz).bit_count()
                    + 2 * (az & rx).bit_count()
                )
                ax ^= rx
                az ^= rz
        exponent = (exponent - (ax & az).bit_count()) & 3
        # exponent is 0 or 2 by the Hermiticity argument above.
        return (1 if exponent == 0 else -1), ax, az

    def conjugate(self, string: PauliString) -> Tuple[int, PauliString]:
        """Return ``(sign, U P U†)`` for a :class:`PauliString` ``P``."""
        if string.n_qubits != self.n_qubits:
            raise ValueError(
                f"cannot conjugate a {string.n_qubits}-qubit string through a "
                f"{self.n_qubits}-qubit tableau"
            )
        sign, x, z = self.conjugate_masks(string.x_mask, string.z_mask)
        return sign, PauliString.from_bitmasks(self.n_qubits, x, z)

    # ------------------------------------------------------------------
    # Right composition: frame' = frame · gate
    # ------------------------------------------------------------------
    def append_gate_right(self, gate: Gate, atol: float = CLIFFORD_ANGLE_ATOL) -> None:
        """Right-compose a gate: the tableau becomes that of ``U · gate``.

        Used by the Pauli-propagation sweep, which grows the suffix Clifford
        frame toward earlier gates.  Only the rows of the gate's qubits
        change: the new row for generator ``B`` is ``U (g B g†) U†`` — the
        bare-gate image of ``B`` pushed through the existing tableau.
        """
        for name, qubits in reversed(list(elementary_gates(gate, atol))):
            self._append_elementary_right(name, qubits)

    def _append_elementary_right(self, name: str, qubits: Tuple[int, ...]) -> None:
        """Push the gate's memoized local generator images through the tableau."""
        if name == "I":
            return
        k = len(qubits)
        updates: List[Tuple[int, int, int, int]] = []
        for local_row, (lx, lz, local_sign) in enumerate(_local_images(name, k)):
            global_row = qubits[local_row % k] + (self.n_qubits if local_row >= k else 0)
            gx = 0
            gz = 0
            for position, qubit in enumerate(qubits):
                gx |= ((lx >> position) & 1) << qubit
                gz |= ((lz >> position) & 1) << qubit
            sign, cx, cz = self.conjugate_masks(gx, gz)
            updates.append((global_row, (1 if sign < 0 else 0) ^ local_sign, cx, cz))
        for row, sign_bit, cx, cz in updates:
            self._set_row(row, sign_bit, cx, cz)

    # ------------------------------------------------------------------
    # Comparison / display
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and np.array_equal(self.sign, other.sign)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    __hash__ = None  # mutable

    def generator_images(self) -> List[Tuple[int, PauliString]]:
        """All ``2n`` generator images as ``(sign, PauliString)`` pairs."""
        images = []
        for row in range(2 * self.n_qubits):
            x, z = self._row_masks(row)
            images.append(
                (
                    -1 if self.sign[row] else 1,
                    PauliString.from_bitmasks(self.n_qubits, x, z),
                )
            )
        return images

    def __repr__(self) -> str:
        return f"CliffordTableau(n_qubits={self.n_qubits})"


#: ``(name, k)`` -> the ``(x, z, sign)`` images of ``X_0..X_{k-1}, Z_0..Z_{k-1}``.
_LOCAL_IMAGES: Dict[Tuple[str, int], Tuple[Tuple[int, int, int], ...]] = {}


def _local_images(name: str, k: int) -> Tuple[Tuple[int, int, int], ...]:
    """An elementary gate's images on its own ``k`` qubits, from its tableau rule."""
    images = _LOCAL_IMAGES.get((name, k))
    if images is None:
        scratch = CliffordTableau.identity(k)
        scratch._apply_elementary(name, tuple(range(k)))
        images = tuple(
            (*scratch._row_masks(row), int(scratch.sign[row])) for row in range(2 * k)
        )
        _LOCAL_IMAGES[(name, k)] = images
    return images


def conjugate_pauli_by_clifford_gate(
    string: PauliString, gate: Gate, atol: float = CLIFFORD_ANGLE_ATOL
) -> Tuple[int, PauliString]:
    """Return ``(sign, G P G†)`` for a single Clifford gate ``G``.

    Any supported Clifford gate, evaluated through the tableau rules.
    """
    tableau = CliffordTableau.identity(string.n_qubits)
    tableau.apply_gate(gate, atol)
    return tableau.conjugate(string)


def tableau_equivalent(
    a: Circuit, b: Circuit, atol: float = CLIFFORD_ANGLE_ATOL
) -> bool:
    """Exact up-to-global-phase equality of two Clifford circuits."""
    if a.n_qubits != b.n_qubits:
        return False
    return CliffordTableau.from_circuit(a, atol) == CliffordTableau.from_circuit(b, atol)
