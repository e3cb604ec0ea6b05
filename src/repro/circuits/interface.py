"""CNOT cancellation accounting at the interface of consecutive Pauli exponentials.

Section III-B of the paper assigns, to every ordered pair of targeted Pauli
strings ``[P1, t1]`` and ``[P2, t2]`` implemented back to back, the number of
CNOT gates saved at their interface.  With a shared target (``t1 = t2 = t``)
the saving is ``Σ_i ω_i`` over non-target qubits ``i``:

* ``ω_i = 0`` if either string acts as identity on ``i``;
* ``ω_i = 2`` if the target carries one of the "good" collisions
  (X,Y), (Y,X), (X,X), (Y,Y) or (Z,Z) — so the residual single-qubit gate on
  the target commutes with the interface CNOTs — *and* the two strings carry
  the same non-identity Pauli on ``i`` (so the basis changes on the control
  cancel and both interface CNOTs annihilate);
* ``ω_i = 1`` otherwise (the two interface CNOTs merge into a single
  CNOT-equivalent two-qubit block).

With different targets no cancellation is counted, matching the paper.
The generalized-TSP edge weights are built from these savings, evaluated in
batch by :class:`repro.operators.SameTargetSavings`; this module is the
scalar reference it is checked against.  The resulting sequence cost is
``Σ_k 2 (w_k - 1) - Σ_k savings(P_k, P_{k+1})``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.circuits.pauli_exponential import pauli_exponential_cnot_count
from repro.operators import PauliString

#: A Pauli string together with its chosen target qubit.
TargetedString = Tuple[PauliString, int]


def interface_cnot_reduction(
    first: PauliString,
    first_target: int,
    second: PauliString,
    second_target: int,
) -> int:
    """CNOT gates saved by implementing ``second`` right after ``first``.

    Implements the ω-rule of Sec. III-B as whole-register bit operations on
    the symplectic masks.  Both targets must lie in the support of their
    respective strings; a mismatch in targets yields zero savings.
    """
    x1, z1 = first.x_mask, first.z_mask
    x2, z2 = second.x_mask, second.z_mask
    support1 = x1 | z1
    support2 = x2 | z2
    if first_target < 0 or not (support1 >> first_target) & 1:
        raise ValueError(
            f"target {first_target} not in support of {first.to_label()}"
        )
    if second_target < 0 or not (support2 >> second_target) & 1:
        raise ValueError(
            f"target {second_target} not in support of {second.to_label()}"
        )
    if first.n_qubits != second.n_qubits:
        raise ValueError("strings must act on the same register size")
    if first_target != second_target:
        return 0

    target = first_target
    # ω = 1 per qubit where both strings are non-identity (target excluded) ...
    both = (support1 & support2) & ~(1 << target)
    saved = both.bit_count()
    # ... plus 1 more per matching collision when the target collision is
    # "good": both strings carry an X component there, or both are exactly Z.
    x1t, z1t = (x1 >> target) & 1, (z1 >> target) & 1
    x2t, z2t = (x2 >> target) & 1, (z2 >> target) & 1
    target_good = (x1t and x2t) or (z1t and not x1t and z2t and not x2t)
    if target_good:
        saved += (both & ~((x1 ^ x2) | (z1 ^ z2))).bit_count()
    # The saving can never exceed the CNOTs present at the interface.
    interface_cnots = (first.weight - 1) + (second.weight - 1)
    return min(saved, max(interface_cnots, 0))


def pair_cnot_count(
    first: PauliString,
    first_target: int,
    second: PauliString,
    second_target: int,
) -> int:
    """Total CNOTs for the back-to-back pair, after interface cancellation."""
    return (
        pauli_exponential_cnot_count(first)
        + pauli_exponential_cnot_count(second)
        - interface_cnot_reduction(first, first_target, second, second_target)
    )


def sequence_cnot_count(sequence: Sequence[TargetedString]) -> int:
    """CNOT count of an ordered sequence of targeted Pauli exponentials.

    ``sequence`` holds ordered ``(PauliString, target)`` pairs; the count is
    the path cost, crediting each adjacent pair's interface cancellation.
    """
    if not sequence:
        return 0
    total = sum(pauli_exponential_cnot_count(string) for string, _ in sequence)
    for (p1, t1), (p2, t2) in zip(sequence, sequence[1:]):
        total -= interface_cnot_reduction(p1, t1, p2, t2)
    return total
