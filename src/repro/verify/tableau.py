"""Clifford/stabilizer tableau simulation on Python-int rows with phase tracking.

A Clifford unitary ``U`` is determined, up to global phase, by its
conjugation action on the ``2n`` Pauli generators: ``U X_q U† = ±P`` and
``U Z_q U† = ±P'``.  :class:`CliffordTableau` stores those ``2n`` images as
``(x, z, sign)`` rows: the packed Python-int masks of
:class:`~repro.operators.pauli.PauliString` (bit ``q`` describes qubit ``q``)
plus the ``(-1)^sign`` exponent bit.

Every gate rule comes from one table, :data:`_GATE_IMAGES`: the images of
the local generators ``X_0 … X_{k-1}, Z_0 … Z_{k-1}`` under each elementary
gate.  A gate is right-composed (``U → U · g``) by pushing the images of its
own qubits' generators through the tableau — the Aaronson–Gottesman row
update (Phys. Rev. A 70, 052328, 2004) — so only ``2k`` rows change.
Circuits are built by right-composing their gates onto the identity,
last-applied first.

Because the Pauli matrices together with the identity span the full matrix
algebra, two Clifford circuits have equal tableaus **iff** they implement the
same unitary up to global phase: ``V† U`` commutes with every Pauli, hence is
a scalar.  Tableau equality is therefore exactly the verdict of
``Circuit.equals_up_to_global_phase`` — at ``O(n²)`` bits instead of
``O(4**n)`` amplitudes.

The verifier shares no conjugation code with the compiler it checks: the
gate-image table lives here and is golden-tested against direct matrix
conjugation in ``tests/verify/test_clifford_golden.py``.

Rotation gates at multiples of ``π/2`` (within :data:`CLIFFORD_ANGLE_ATOL`)
are Clifford up to global phase and are absorbed via named-gate
decompositions (``RZ(π/2) ≅ S``, ``RX(π) ≅ X``, ``RY(θ) = S·RX(θ)·S†`` …);
any other rotation — and ``T``/``TDG`` — raises :class:`NotCliffordError`.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.operators.pauli import PauliString

#: One tableau row: the packed ``(x, z)`` masks of a Pauli and its sign bit.
Row = Tuple[int, int, int]

#: Images ``(x, z, sign)`` of the local generators ``X_0 … X_{k-1},
#: Z_0 … Z_{k-1}`` under each elementary gate ``g``, i.e. ``g B g†``; bit
#: ``j`` of a mask is the gate's ``j``-th qubit.  Two-qubit gates read
#: ``(control, target)`` / ``(a, b)``.
_GATE_IMAGES = {
    "I": ((1, 0, 0), (0, 1, 0)),
    "X": ((1, 0, 0), (0, 1, 1)),  # Z → −Z
    "Y": ((1, 0, 1), (0, 1, 1)),  # X → −X, Z → −Z
    "Z": ((1, 0, 1), (0, 1, 0)),  # X → −X
    "H": ((0, 1, 0), (1, 0, 0)),  # X ↔ Z
    "S": ((1, 1, 0), (0, 1, 0)),  # X → Y
    "SDG": ((1, 1, 1), (0, 1, 0)),  # X → −Y
    "SQRTX": ((1, 0, 0), (1, 1, 1)),  # Z → −Y
    "SQRTXDG": ((1, 0, 0), (1, 1, 0)),  # Z → Y
    # X_c → X_c X_t, X_t → X_t, Z_c → Z_c, Z_t → Z_c Z_t
    "CNOT": ((0b11, 0, 0), (0b10, 0, 0), (0, 0b01, 0), (0, 0b11, 0)),
    # X_a → X_a Z_b, X_b → Z_a X_b, Z_a → Z_a, Z_b → Z_b
    "CZ": ((0b01, 0b10, 0), (0b10, 0b01, 0), (0, 0b01, 0), (0, 0b10, 0)),
    # X_a ↔ X_b, Z_a ↔ Z_b
    "SWAP": ((0b10, 0, 0), (0b01, 0, 0), (0, 0b10, 0), (0, 0b01, 0)),
}

#: Parameter-free gate names with native tableau update rules.
CLIFFORD_GATE_NAMES = frozenset(_GATE_IMAGES)

#: Absolute tolerance under which a rotation angle counts as a multiple of π/2.
CLIFFORD_ANGLE_ATOL = 1e-9

_HALF_PI = math.pi / 2.0

#: Named decompositions of Clifford-angle rotations, in circuit order, by
#: ``k = angle / (π/2) mod 4``.  ``RY(θ) = S·RX(θ)·S†`` (as matrices), so its
#: circuit-order decomposition wraps the RX decomposition in ``SDG … S``.
_RZ_DECOMP = {0: (), 1: ("S",), 2: ("Z",), 3: ("SDG",)}
_RX_DECOMP = {0: (), 1: ("SQRTX",), 2: ("X",), 3: ("SQRTXDG",)}
_RY_DECOMP = {k: (("SDG",) + _RX_DECOMP[k] + ("S",)) if k else () for k in range(4)}
_ROTATION_DECOMP = {"RZ": _RZ_DECOMP, "RX": _RX_DECOMP, "RY": _RY_DECOMP}


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
    """Conjugation tableau of a Clifford unitary ``U`` as Python-int rows.

    ``rows[q]`` is the ``(x, z, sign)`` image ``U X_q U†`` and
    ``rows[n + q]`` the image ``U Z_q U†``, with ``(-1)^sign`` in front.
    """

    __slots__ = ("n_qubits", "rows")

    def __init__(self, n_qubits: int, rows: List[Row]):
        self.n_qubits = int(n_qubits)
        self.rows = rows

    @classmethod
    def identity(cls, n_qubits: int) -> "CliffordTableau":
        """The tableau of the identity circuit on ``n_qubits`` qubits."""
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        qubits = range(n_qubits)
        return cls(
            n_qubits,
            [(1 << q, 0, 0) for q in qubits] + [(0, 1 << q, 0) for q in qubits],
        )

    @classmethod
    def from_circuit(
        cls, circuit: Circuit, atol: float = CLIFFORD_ANGLE_ATOL
    ) -> "CliffordTableau":
        """Tableau of a Clifford circuit; raises :class:`NotCliffordError`.

        The circuit is ``g_m ⋯ g_1``, so the gates right-compose onto the
        identity last-applied first.
        """
        tableau = cls.identity(circuit.n_qubits)
        for gate in reversed(list(circuit)):
            tableau.append_gate_right(gate, atol)
        return tableau

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(self.n_qubits, list(self.rows))

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
        rows = self.rows
        exponent = (x & z).bit_count()
        ax = 0
        az = 0
        for offset, mask in ((0, x), (self.n_qubits, z)):
            while mask:
                low = mask & -mask
                mask ^= low
                rx, rz, sign = rows[offset + low.bit_length() - 1]
                exponent += 2 * sign + (rx & rz).bit_count() + 2 * (az & rx).bit_count()
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
    # Right composition: U ← U · gate
    # ------------------------------------------------------------------
    def append_gate_right(self, gate: Gate, atol: float = CLIFFORD_ANGLE_ATOL) -> None:
        """Right-compose a gate: the tableau becomes that of ``U · gate``.

        Only the rows of the gate's qubits change: the new row for generator
        ``B`` is ``U (g B g†) U†`` — the gate's image of ``B`` from
        :data:`_GATE_IMAGES` pushed through the existing tableau.
        """
        for name, qubits in reversed(list(elementary_gates(gate, atol))):
            k = len(qubits)
            updates = []
            for local_row, (lx, lz, local_sign) in enumerate(_GATE_IMAGES[name]):
                gx = 0
                gz = 0
                for position, qubit in enumerate(qubits):
                    gx |= ((lx >> position) & 1) << qubit
                    gz |= ((lz >> position) & 1) << qubit
                sign, cx, cz = self.conjugate_masks(gx, gz)
                row = qubits[local_row % k] + (self.n_qubits if local_row >= k else 0)
                updates.append((row, (cx, cz, local_sign ^ (sign < 0))))
            for row, image in updates:
                self.rows[row] = image

    # ------------------------------------------------------------------
    # Comparison / display
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.rows == other.rows

    __hash__ = None  # mutable

    def generator_images(self) -> List[Tuple[int, PauliString]]:
        """All ``2n`` generator images as ``(sign, PauliString)`` pairs."""
        return [
            (-1 if sign else 1, PauliString.from_bitmasks(self.n_qubits, x, z))
            for x, z, sign in self.rows
        ]

    def __repr__(self) -> str:
        return f"CliffordTableau(n_qubits={self.n_qubits})"


def conjugate_pauli_by_clifford_gate(
    string: PauliString, gate: Gate, atol: float = CLIFFORD_ANGLE_ATOL
) -> Tuple[int, PauliString]:
    """Return ``(sign, G P G†)`` for a single Clifford gate ``G``."""
    tableau = CliffordTableau.identity(string.n_qubits)
    tableau.append_gate_right(gate, atol)
    return tableau.conjugate(string)
