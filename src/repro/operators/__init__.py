"""Operator algebra substrate: fermionic ladder operators and Pauli/qubit operators.

This subpackage provides the second-quantized and qubit-operator data
structures that every other layer of the library builds on:

* :class:`~repro.operators.fermion.FermionOperator` — sums of products of
  fermionic creation/annihilation operators with complex coefficients,
  supporting normal ordering and hermitian conjugation.
* :class:`~repro.operators.pauli.PauliString` — an immutable n-qubit Pauli
  string (tensor product of I/X/Y/Z) stored symplectically (bit-packed X/Z
  masks) with multiplication, commutation and sparse-matrix export.
* :class:`~repro.operators.symplectic.PackedPaulis` — many strings packed
  into ``uint64`` bit-planes for vectorized scans, among them
  :class:`~repro.operators.symplectic.SameTargetSavings`, the batched
  Sec. III-B interface savings every sort decision reads.
* :class:`~repro.operators.qubit.QubitOperator` — complex linear combinations
  of Pauli strings with full algebra.
"""

from repro.operators.fermion import FermionOperator, FermionTerm
from repro.operators.pauli import PauliString
from repro.operators.qubit import QubitOperator
from repro.operators.symplectic import (
    PackedPaulis,
    SameTargetSavings,
    lexicographic_order,
    linear_encoding_image,
    routed_vertex_cost_vector,
    support_matrix,
    weight_vector,
)

__all__ = [
    "FermionOperator",
    "FermionTerm",
    "PackedPaulis",
    "PauliString",
    "QubitOperator",
    "SameTargetSavings",
    "lexicographic_order",
    "linear_encoding_image",
    "routed_vertex_cost_vector",
    "support_matrix",
    "weight_vector",
]
