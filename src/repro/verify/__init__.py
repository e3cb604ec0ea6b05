"""Scalable equivalence-checking engines for circuits.

Dense ``Circuit.to_unitary`` comparison caps differential testing at ~12
qubits.  This package provides the engine tier that pushes the repo's
routed-equivalence and cross-backend harnesses to 20-50 qubits:

* :class:`~repro.verify.tableau.CliffordTableau` — a Clifford/stabilizer
  tableau simulator with phase tracking.  Its rows are Python-int
  ``(x, z, sign)`` generator images, every gate rule comes from one
  generator-image table, and gates compose on the right only.  Two Clifford
  circuits are equal up to global phase iff their tableaus are equal.
* :func:`~repro.verify.pauli_prop.rotation_product_form` — Pauli-propagation
  canonicalization of arbitrary circuits in the CNOT + single-qubit gate set
  into ``exp(-iθ/2 P)`` products times a Clifford frame, enabling
  equivalence checks of rotation products without materializing any
  statevector.
* :mod:`~repro.verify.sparse` — a seeded sparse-statevector probe engine for
  shallow non-Clifford circuits.
* :func:`~repro.verify.engine.check_equivalence` /
  :func:`~repro.verify.engine.assert_equivalent` — the dispatcher that
  classifies a circuit pair and picks the cheapest sufficient engine.

Conventions are documented in the README "Verification engines" section:
qubit ``q`` is bit ``q`` of the packed masks, qubit 0 is the most
significant bit of computational-basis indices, and every engine decides
equality *up to global phase* (matching ``Circuit.equals_up_to_global_phase``).
"""

from repro.verify.engine import (
    EquivalenceReport,
    assert_equivalent,
    assert_implements_rotations,
    check_equivalence,
    classify_circuit,
)
from repro.verify.pauli_prop import (
    PauliProductForm,
    PauliRotation,
    forms_equivalent,
    rotation_product_form,
    sequence_rotation_form,
)
from repro.verify.sparse import EngineUnsupported, SparseState, sparse_probe_equivalent
from repro.verify.tableau import (
    CLIFFORD_ANGLE_ATOL,
    CLIFFORD_GATE_NAMES,
    CliffordTableau,
    NotCliffordError,
    conjugate_pauli_by_clifford_gate,
    is_clifford_circuit,
    is_clifford_gate,
)

__all__ = [
    "EquivalenceReport",
    "assert_equivalent",
    "assert_implements_rotations",
    "check_equivalence",
    "classify_circuit",
    "PauliProductForm",
    "PauliRotation",
    "forms_equivalent",
    "rotation_product_form",
    "sequence_rotation_form",
    "EngineUnsupported",
    "SparseState",
    "sparse_probe_equivalent",
    "CLIFFORD_ANGLE_ATOL",
    "CLIFFORD_GATE_NAMES",
    "CliffordTableau",
    "NotCliffordError",
    "conjugate_pauli_by_clifford_gate",
    "is_clifford_circuit",
    "is_clifford_gate",
]
