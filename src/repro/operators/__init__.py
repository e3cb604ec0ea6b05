"""The one Pauli representation: symplectic bit-planes.

Every layer of the library that handles Pauli strings builds on these:

* :class:`~repro.operators.pauli.PauliString` — an immutable n-qubit Pauli
  string (tensor product of I/X/Y/Z) stored symplectically (bit-packed X/Z
  masks) with multiplication, commutation and sparse-matrix export.
* :class:`~repro.operators.symplectic.PackedPaulis` — many strings packed
  into ``uint64`` bit-planes for vectorized scans, among them
  :class:`~repro.operators.symplectic.SameTargetSavings`, the batched
  Sec. III-B interface savings every sort decision reads.

Fermionic operators never appear as objects: the compiler expands excitation
terms on these planes in closed form, and the simulator builds its matrices
from ladder-operator products on basis-index bit masks.
"""

from repro.operators.pauli import PauliString
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
    "PackedPaulis",
    "PauliString",
    "SameTargetSavings",
    "lexicographic_order",
    "linear_encoding_image",
    "routed_vertex_cost_vector",
    "support_matrix",
    "weight_vector",
]
