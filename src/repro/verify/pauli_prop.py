"""Pauli-propagation equivalence checking for rotation-product circuits.

Every circuit in the repo's gate set factors, exactly and without touching a
statevector, into the form::

    U = R'_m · … · R'_1 · C

where ``C`` is a Clifford (stored as a :class:`~repro.verify.tableau.CliffordTableau`)
and each ``R'_k = exp(-iθ_k/2 P_k)`` is a Pauli rotation with a packed-mask
axis.  The factorization is a single reverse sweep: walking the gate list
from last-applied to first-applied while growing a suffix Clifford frame
``S``, a Clifford gate right-composes onto ``S`` and a non-Clifford rotation
``exp(-iθ/2 P)`` is emitted as ``S exp(-iθ/2 P) S† = exp(-i sθ/2 · S P S†)``.
Rotations are listed first-applied-first, so the matrix product above reads
right to left and the frame acts *before* the rotations.

The raw factorization is then canonicalized so that syntactically different
but equivalent compilations collide:

* angles are reduced to ``(-π, π]`` (``θ`` and ``θ ± 2π`` differ only by a
  global ``-1``), and near-zero rotations are dropped;
* rotations whose reduced angle lands on a multiple of ``π/2`` are Clifford
  and are folded into the frame, conjugating every earlier rotation;
* adjacent-commuting rotations about the same axis are merged
  (mirroring what :mod:`repro.circuits.optimizer` does to circuits);
* the remaining list is put into the lexicographic normal form of its trace
  monoid — commuting neighbours are reordered into a canonical sequence.

Canonicalization is *sound*: :func:`forms_equivalent` returning ``True``
guarantees the circuits agree up to global phase (within the angle
tolerance).  It is conservative in the other direction — exotic identities
between non-commuting rotations are not recognized — which is exactly the
contract the dispatcher in :mod:`repro.verify.engine` needs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.operators.pauli import PauliString
from repro.verify.tableau import (
    CLIFFORD_ANGLE_ATOL,
    CliffordTableau,
    clifford_rotation_index,
    is_clifford_gate,
)

_TAU = 2.0 * math.pi

#: Rotation axes as (x?, z?) qubit-bit flags, plus T/TDG as fixed-angle
#: Z rotations (``T = e^{iπ/8} RZ(π/4)`` — the global phase is irrelevant
#: to every engine in this package).
_ROTATION_AXES = {"RZ": (0, 1), "RX": (1, 0), "RY": (1, 1)}
_FIXED_ROTATIONS = {"T": math.pi / 4.0, "TDG": -math.pi / 4.0}


@dataclass(frozen=True)
class PauliRotation:
    """One ``exp(-iθ/2 P)`` factor; ``P`` as packed x/z masks, phaseless."""

    x: int
    z: int
    angle: float

    def pauli(self, n_qubits: int) -> PauliString:
        return PauliString.from_bitmasks(n_qubits, self.x, self.z)


@dataclass(eq=False)
class PauliProductForm:
    """Canonical ``rotations · frame`` factorization of a circuit."""

    n_qubits: int
    rotations: Tuple[PauliRotation, ...]
    frame: CliffordTableau


def _commutes(a: PauliRotation, b: PauliRotation) -> bool:
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def _multiply_phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of ``i`` in ``P1 · P2 = i^e · P3`` for phaseless strings.

    Same bookkeeping as :meth:`repro.operators.pauli.PauliString.multiply`,
    on raw masks.
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    return (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (z1 & x2).bit_count()
    ) % 4


def _reduce_angle(angle: float) -> float:
    """Reduce to ``[-π, π]``; the ``2π`` shift is a global ``-1``."""
    return math.remainder(angle, _TAU)


def _conjugate_by_rotation(
    x: int, z: int, w_x: int, w_z: int, k: int
) -> Tuple[int, int, int]:
    """``W P W† = (-1)^flip · P'`` for ``W = exp(-i kπ/4 P_w)`` (``k ∈ {1, 2, 3}``).

    Returns ``(flip, x', z')``.  A commuting ``P`` is untouched; an
    anticommuting one maps to ``-P`` (k=2) or ``∓i P_w P`` (k=1 / k=3),
    which is again ``±`` a Hermitian Pauli.
    """
    if ((w_x & z).bit_count() + (w_z & x).bit_count()) % 2 == 0:
        return 0, x, z
    if k == 2:
        return 1, x, z
    exponent = _multiply_phase_exponent(w_x, w_z, x, z)
    # -i · i^e is ±1 because P_w and P anticommute (e is odd).
    flip = 0 if (exponent - 1) % 4 == 0 else 1
    return flip ^ (k == 3), x ^ w_x, z ^ w_z


def _conjugate_rotation(
    rotation: PauliRotation, w_x: int, w_z: int, k: int
) -> PauliRotation:
    """``W R W†`` for a Clifford-angle Pauli rotation ``W``: new axis, angle sign."""
    flip, x, z = _conjugate_by_rotation(rotation.x, rotation.z, w_x, w_z, k)
    return PauliRotation(x, z, -rotation.angle if flip else rotation.angle)


def _fold_rotation_into_frame(
    frame: CliffordTableau, w_x: int, w_z: int, k: int
) -> None:
    """Frame ← ``W · frame`` for a Clifford-angle Pauli rotation ``W``.

    Each stored generator image ``±Q`` becomes ``±W Q W†``.
    """
    rows = []
    for x, z, sign in frame.rows:
        flip, x, z = _conjugate_by_rotation(x, z, w_x, w_z, k)
        rows.append((x, z, sign ^ flip))
    frame.rows = rows


def _rotation_key(rotation: PauliRotation) -> Tuple[int, int, float]:
    return (rotation.x, rotation.z, round(rotation.angle, 9))


def _merge_pass(rotations: List[PauliRotation]) -> Tuple[List[PauliRotation], bool]:
    """Merge same-axis rotations across commuting gaps (optimizer-style)."""
    out: List[PauliRotation] = []
    changed = False
    for rotation in rotations:
        merged = False
        for j in range(len(out) - 1, -1, -1):
            prev = out[j]
            if prev.x == rotation.x and prev.z == rotation.z:
                out[j] = PauliRotation(
                    rotation.x, rotation.z, prev.angle + rotation.angle
                )
                merged = True
                changed = True
                break
            if not _commutes(prev, rotation):
                break
        if not merged:
            out.append(rotation)
    return out, changed


def _lex_normal_form(rotations: List[PauliRotation]) -> List[PauliRotation]:
    """Lexicographic normal form of the trace monoid of commuting swaps.

    Repeatedly emit the smallest-keyed rotation that commutes with everything
    still scheduled before it, the earliest one on equal keys; equivalent
    reorderings of commuting neighbours all map to the same sequence.

    ``O(m² + m log m)``: one anticommutation DAG over earlier → later pairs,
    then sources pop from a heap keyed ``(_rotation_key, original index)``.
    """
    successors: List[List[int]] = [[] for _ in rotations]
    indegree = [0] * len(rotations)
    for later, b in enumerate(rotations):
        for earlier in range(later):
            if not _commutes(rotations[earlier], b):
                successors[earlier].append(later)
                indegree[later] += 1
    keys = [_rotation_key(rotation) for rotation in rotations]
    ready = [(keys[i], i) for i, degree in enumerate(indegree) if degree == 0]
    heapq.heapify(ready)
    out: List[PauliRotation] = []
    while ready:
        _, index = heapq.heappop(ready)
        out.append(rotations[index])
        for later in successors[index]:
            indegree[later] -= 1
            if indegree[later] == 0:
                heapq.heappush(ready, (keys[later], later))
    return out


def _canonicalize(
    rotations: List[PauliRotation], frame: CliffordTableau, atol: float
) -> Tuple[PauliRotation, ...]:
    while True:
        # Reduce angles; drop identities and near-zero rotations.
        reduced: List[PauliRotation] = []
        for rotation in rotations:
            angle = _reduce_angle(rotation.angle)
            if abs(angle) <= atol or (rotation.x == 0 and rotation.z == 0):
                continue
            reduced.append(PauliRotation(rotation.x, rotation.z, angle))
        rotations = reduced

        # Fold the first Clifford-angle rotation into the frame.
        folded = False
        for j, rotation in enumerate(rotations):
            k = clifford_rotation_index(rotation.angle, atol)
            if k is None or k == 0:
                continue
            rotations = [
                _conjugate_rotation(earlier, rotation.x, rotation.z, k)
                for earlier in rotations[:j]
            ] + rotations[j + 1 :]
            _fold_rotation_into_frame(frame, rotation.x, rotation.z, k)
            folded = True
            break
        if folded:
            continue

        rotations, merged = _merge_pass(rotations)
        if not merged:
            break
    return tuple(_lex_normal_form(rotations))


def rotation_product_form(
    circuit: Circuit, atol: float = CLIFFORD_ANGLE_ATOL
) -> PauliProductForm:
    """Factor a circuit into canonical Pauli rotations times a Clifford frame.

    Linear in gate count times ``O(n)`` mask work per gate — no statevector,
    no dense matrix, usable at hundreds of qubits.
    """
    n = circuit.n_qubits
    suffix = CliffordTableau.identity(n)
    reversed_rotations: List[PauliRotation] = []
    for gate in reversed(list(circuit)):
        if is_clifford_gate(gate, atol):
            suffix.append_gate_right(gate, atol)
            continue
        if gate.name in _ROTATION_AXES:
            has_x, has_z = _ROTATION_AXES[gate.name]
            angle = gate.parameter
        elif gate.name in _FIXED_ROTATIONS:
            has_x, has_z = 0, 1
            angle = _FIXED_ROTATIONS[gate.name]
        else:  # pragma: no cover - the gate set has no other non-Clifford
            raise ValueError(f"gate {gate!r} has no rotation form")
        qubit_bit = 1 << gate.qubits[0]
        sign, cx, cz = suffix.conjugate_masks(
            qubit_bit if has_x else 0, qubit_bit if has_z else 0
        )
        reversed_rotations.append(PauliRotation(cx, cz, sign * angle))
    rotations = list(reversed(reversed_rotations))
    canonical = _canonicalize(rotations, suffix, atol)
    return PauliProductForm(n, canonical, suffix)


def sequence_rotation_form(
    terms: Sequence[Tuple[PauliString, float]],
    n_qubits: int,
    atol: float = CLIFFORD_ANGLE_ATOL,
) -> PauliProductForm:
    """Canonical form of an intended ``Π exp(-iθ_k/2 P_k)`` product.

    The reference object for :func:`repro.verify.engine.assert_implements_rotations`:
    a compiled circuit implements the sequence iff its
    :func:`rotation_product_form` matches this form under
    :func:`forms_equivalent`.  Terms are listed first-applied-first, matching
    :func:`repro.circuits.pauli_exponential.exponential_sequence_circuit`.
    """
    frame = CliffordTableau.identity(n_qubits)
    rotations = [
        PauliRotation(string.x_mask, string.z_mask, angle)
        for string, angle in terms
    ]
    canonical = _canonicalize(rotations, frame, atol)
    return PauliProductForm(n_qubits, canonical, frame)


def forms_equivalent(
    a: PauliProductForm, b: PauliProductForm, atol: float = 1e-8
) -> bool:
    """Sound (conservative) equality of canonical forms up to global phase."""
    if a.n_qubits != b.n_qubits or len(a.rotations) != len(b.rotations):
        return False
    for ra, rb in zip(a.rotations, b.rotations):
        if ra.x != rb.x or ra.z != rb.z:
            return False
        if abs(_reduce_angle(ra.angle - rb.angle)) > atol:
            return False
    return a.frame == b.frame
