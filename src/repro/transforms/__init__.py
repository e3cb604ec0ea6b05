"""Fermion-to-qubit transformations and the GF(2) matrices behind them.

Every transform is a :class:`LinearEncodingTransform`: Jordan-Wigner is
Γ = I, and Bravyi-Kitaev, parity and the paper's generalized (Γ-conjugated)
encodings are other invertible Γ.  A transform maps Jordan-Wigner Pauli
planes by Γ with a closed-form sign (:meth:`LinearEncodingTransform.conjugate_planes`);
no CNOT network is built or walked and no operator dict is multiplied.  The
binary-matrix utilities the encodings are built from are exported too.
"""

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
from repro.transforms.linear_encoding import (
    BravyiKitaevTransform,
    JordanWignerTransform,
    LinearEncodingTransform,
    ParityTransform,
)

__all__ = [
    "JordanWignerTransform",
    "LinearEncodingTransform",
    "BravyiKitaevTransform",
    "ParityTransform",
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
