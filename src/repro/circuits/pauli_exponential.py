"""Circuit synthesis for Pauli-string exponentials.

Implements the template of Fig. 3(b) of the paper: the unitary
``exp(-i θ/2 · P)`` for a Pauli string ``P`` is synthesized by

1. rotating every non-identity factor into the Z basis with single-qubit
   Clifford gates ``M`` (H for X, S† then H for Y, nothing for Z),
2. a CNOT "star" from every non-target support qubit onto a chosen target
   qubit,
3. ``Rz(θ)`` on the target,
4. undoing the CNOT star and the basis changes.

The CNOT count is ``2 (w - 1)`` where ``w`` is the Pauli weight.  The paper's
*advanced sorting* exploits the freedom in both the target-qubit choice and
the order of CNOTs inside the star to cancel gates between consecutive
exponentials.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, _trusted_gate, rz
from repro.operators import PauliString


def basis_change_gates(label: str, qubit: int) -> Tuple[List[Gate], List[Gate]]:
    """Return the (pre, post) single-qubit gates rotating ``label`` into Z.

    The pre gates are applied before the Z-basis rotation (circuit order) and
    the post gates after, such that ``post · Rz · pre = exp(-i θ/2 σ_label)``.
    """
    qubits = (int(qubit),)
    if label == "X":
        hadamard = _trusted_gate("H", qubits)
        return [hadamard], [hadamard]
    if label == "Y":
        hadamard = _trusted_gate("H", qubits)
        pre = [_trusted_gate("SDG", qubits), hadamard]
        return pre, [hadamard, _trusted_gate("S", qubits)]
    if label == "Z":
        return [], []
    raise ValueError(f"no basis change for Pauli label {label!r}")


def validate_target(string: PauliString, target: Optional[int]) -> int:
    """Check (or choose) a valid target qubit (a Python int) for ``string``."""
    support = string.support
    if not support:
        raise ValueError("cannot exponentiate the identity string into a circuit")
    if target is None:
        return support[-1]
    if target not in support:
        raise ValueError(
            f"target qubit {target} is not in the support {support} of {string.to_label()}"
        )
    return int(target)


def ladder_exponential_gates(
    string: PauliString, angle: float, target: int, ladder: Sequence[Gate]
) -> List[Gate]:
    """``M · ladder · Rz(angle) · ladder⁻¹ · M†`` in circuit order, as a list.

    The frame shared by the all-to-all star and the topology-steered ladder.
    """
    pre_gates: List[Gate] = []
    post_gates: List[Gate] = []
    for qubit in string.support:
        pre, post = basis_change_gates(string[qubit], qubit)
        pre_gates.extend(pre)
        post_gates.extend(post)
    return [*pre_gates, *ladder, rz(target, angle), *reversed(ladder), *post_gates]


def _exponential_gates(
    string: PauliString,
    angle: float,
    target: Optional[int] = None,
    control_order: Optional[Sequence[int]] = None,
) -> List[Gate]:
    """Gate list of :func:`pauli_exponential_circuit` (empty for the identity)."""
    if string.is_identity:
        # exp(-i θ/2 I) is a global phase; nothing to synthesize.
        return []
    target = validate_target(string, target)
    controls = [q for q in string.support if q != target]
    if control_order is not None:
        control_order = [int(q) for q in control_order]
        if sorted(control_order) != sorted(controls):
            raise ValueError(
                f"control_order {control_order} must be a permutation of {controls}"
            )
        controls = control_order
    star = [_trusted_gate("CNOT", (control, target)) for control in controls]
    return ladder_exponential_gates(string, angle, target, star)


def pauli_exponential_circuit(
    string: PauliString,
    angle: float,
    target: Optional[int] = None,
    control_order: Optional[Sequence[int]] = None,
) -> Circuit:
    """Synthesize ``exp(-i angle/2 · string)`` with the staircase template.

    Parameters
    ----------
    string:
        The Pauli string ``P``.
    angle:
        The rotation angle θ.
    target:
        Target qubit carrying the ``Rz``; must act non-trivially in ``P``.
        Defaults to the highest-index support qubit.
    control_order:
        Order in which the non-target support qubits are CNOT-ed onto the
        target (entangling order).  The un-computation uses the reverse
        order.  Defaults to ascending qubit index.

    Returns
    -------
    Circuit
        A circuit on ``string.n_qubits`` qubits using ``2 (w - 1)`` CNOTs.
    """
    return Circuit(
        string.n_qubits, _exponential_gates(string, angle, target, control_order)
    )


def pauli_exponential_cnot_count(string: PauliString) -> int:
    """CNOT count of exponentiating a single string with the template."""
    weight = string.weight
    return 0 if weight <= 1 else 2 * (weight - 1)


def exponential_sequence_circuit(
    terms: Sequence[Tuple[PauliString, float, Optional[int]]],
    n_qubits: Optional[int] = None,
) -> Circuit:
    """Concatenate exponential circuits for an ordered list of ``(P, θ, target)``.

    Linear in the gate count: the circuit is built once from one gate list.

    No inter-term optimization is applied here; run the peephole optimizer
    (:mod:`repro.circuits.optimizer`) on the result to realize the gate
    cancellations the paper's advanced sorting exposes.
    """
    if not terms:
        raise ValueError("term list is empty")
    if n_qubits is None:
        n_qubits = terms[0][0].n_qubits
    gates: List[Gate] = []
    for string, angle, target in terms:
        if string.n_qubits != n_qubits:
            raise ValueError("all strings must act on the same register size")
        gates.extend(_exponential_gates(string, angle, target))
    return Circuit(n_qubits, gates)
