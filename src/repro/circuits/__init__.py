"""Quantum circuit intermediate representation, synthesis and optimization.

The subpackage provides:

* :class:`~repro.circuits.gates.Gate` and :class:`~repro.circuits.circuit.Circuit`
  — the CNOT + single-qubit gate IR whose CNOT count is the paper's metric;
* :func:`~repro.circuits.pauli_exponential.pauli_exponential_circuit` — the
  Fig. 3(b) template with a selectable target qubit;
* :func:`~repro.circuits.interface.interface_cnot_reduction` and
  :func:`~repro.circuits.interface.sequence_cnot_count` — the Sec. III-B
  cancellation accounting one pair at a time: the scalar reference for the
  batched :class:`repro.operators.SameTargetSavings` behind the GTSP edge
  weights, and the CNOT count of a sorted sequence;
* :func:`~repro.circuits.optimizer.optimize_circuit` — an exact peephole pass
  realizing cancellations at the gate level.

Γ circuits are not synthesized: the paper treats Γ as a compile-time
relabeling, and :class:`repro.transforms.LinearEncodingTransform` applies
it as a matrix.
"""

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    Gate,
    cnot,
    hadamard,
    pauli_x,
    pauli_y,
    pauli_z,
    rx,
    ry,
    rz,
    s_gate,
    sdg_gate,
)
from repro.circuits.interface import (
    interface_cnot_reduction,
    pair_cnot_count,
    sequence_cnot_count,
)
from repro.circuits.optimizer import (
    gates_commute,
    optimize_circuit,
    optimized_cnot_count,
    remove_identity_rotations,
)
from repro.circuits.pauli_exponential import (
    basis_change_gates,
    exponential_sequence_circuit,
    pauli_exponential_circuit,
    pauli_exponential_cnot_count,
)

__all__ = [
    "Circuit",
    "Gate",
    "cnot",
    "hadamard",
    "pauli_x",
    "pauli_y",
    "pauli_z",
    "rx",
    "ry",
    "rz",
    "s_gate",
    "sdg_gate",
    "pauli_exponential_circuit",
    "pauli_exponential_cnot_count",
    "exponential_sequence_circuit",
    "basis_change_gates",
    "interface_cnot_reduction",
    "pair_cnot_count",
    "sequence_cnot_count",
    "optimize_circuit",
    "optimized_cnot_count",
    "remove_identity_rotations",
    "gates_commute",
]
