"""Fermion-to-qubit transformations and the GF(2) matrices behind them.

Exports the Jordan-Wigner, Bravyi-Kitaev, parity and generalized
(Γ-conjugated) transforms along with the binary-matrix utilities they are
built from.  A linear encoding applies Γ to the Jordan-Wigner image as a
signed GF(2) map of the Pauli planes; no CNOT network is built or walked.
"""

from repro.transforms.base import FermionQubitTransform
from repro.transforms.binary import (
    block_diagonal,
    bravyi_kitaev_matrix,
    cnot_network_matrix,
    gf2_inverse,
    gf2_matmul,
    gf2_matvec,
    gf2_rank,
    identity_matrix,
    is_invertible,
    is_upper_triangular,
    jordan_wigner_matrix,
    parity_matrix,
    random_invertible_matrix,
    random_upper_triangular_matrix,
)
from repro.transforms.jordan_wigner import JordanWignerTransform, jordan_wigner
from repro.transforms.linear_encoding import (
    BravyiKitaevTransform,
    LinearEncodingTransform,
    ParityTransform,
    bravyi_kitaev,
    generalized_transform,
    parity_transform,
)

__all__ = [
    "FermionQubitTransform",
    "JordanWignerTransform",
    "jordan_wigner",
    "LinearEncodingTransform",
    "BravyiKitaevTransform",
    "ParityTransform",
    "bravyi_kitaev",
    "parity_transform",
    "generalized_transform",
    "identity_matrix",
    "jordan_wigner_matrix",
    "parity_matrix",
    "bravyi_kitaev_matrix",
    "block_diagonal",
    "gf2_matmul",
    "gf2_matvec",
    "gf2_inverse",
    "gf2_rank",
    "is_invertible",
    "is_upper_triangular",
    "random_invertible_matrix",
    "random_upper_triangular_matrix",
    "cnot_network_matrix",
]
