"""Linear-encoding (GL(N,2)) fermion-to-qubit transformations.

A *linear encoding* stores the binary occupation vector ``x`` of the fermionic
modes as ``y = Γ x`` on the qubit register, for some invertible binary matrix
``Γ``.  The Jordan-Wigner transform is ``Γ = 1``; the parity and Bravyi-Kitaev
transforms correspond to structured choices of ``Γ``; the paper's *advanced
fermion-to-qubit transformation* searches over block-diagonal ``Γ`` with
simulated annealing.

The transform of an operator is its Jordan-Wigner image conjugated by the
CNOT-only Clifford ``U_Γ: |x⟩ ↦ |Γx⟩``.  No circuit is built: conjugation
maps the symplectic planes linearly (x → Γx, z → Γ^{-T}z, see
:func:`repro.operators.linear_encoding_image`) and fixes the sign in closed
form.  Writing a string as ``i^{|x∧z|} X^x Z^z``, ``U_Γ`` maps ``X^x Z^z`` to
``X^{x'} Z^{z'}`` with no phase, so ``U_Γ P U_Γ† = i^{|x∧z| − |x'∧z'|} P'``.
The exponent is even (``x·z`` is invariant mod 2), so the sign is −1 exactly
when the Y count changes by 2 mod 4.  The Jordan-Wigner images themselves are
written in closed form on the same planes by
:func:`repro.core.terms_to_paulis.jordan_wigner_rotations`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.operators import PackedPaulis, linear_encoding_image
from repro.transforms.binary import (
    as_gf2,
    bravyi_kitaev_matrix,
    gf2_inverse,
    identity_matrix,
    parity_matrix,
)


def _y_counts(packed: PackedPaulis) -> np.ndarray:
    """Number of Y factors of every string, as an ``(m,)`` int array."""
    return np.bitwise_count(packed.x & packed.z).sum(axis=-1, dtype=np.int64)


class LinearEncodingTransform:
    """Fermion-to-qubit transformation defined by an invertible GF(2) matrix.

    Parameters
    ----------
    gamma:
        The ``n x n`` invertible binary encoding matrix Γ.  The qubit register
        stores ``Γ x`` where ``x`` is the mode-occupation vector.
    """

    def __init__(self, gamma: np.ndarray):
        gamma = as_gf2(gamma)
        # Raises ValueError unless Γ is square and invertible over GF(2).
        self._bind(gamma, gf2_inverse(gamma))

    @classmethod
    def from_pair(cls, gamma: np.ndarray, gamma_inverse: np.ndarray) -> "LinearEncodingTransform":
        """The transform of ``gamma``, taking ``gamma_inverse`` on trust.

        Nothing is checked or inverted: the caller vouches that both are
        ``n × n`` uint8 0/1 matrices and that ``gamma_inverse`` is the GF(2)
        inverse of ``gamma``.  The Γ search builds its candidates this way,
        carrying every block's inverse along its walk.
        """
        transform = cls.__new__(cls)
        transform._bind(gamma, gamma_inverse)
        return transform

    def _bind(
        self, gamma: np.ndarray, gamma_inverse: np.ndarray, is_identity: Optional[bool] = None
    ) -> None:
        self.n_modes = gamma.shape[0]
        if self.n_modes <= 0:
            raise ValueError("n_modes must be positive")
        self.gamma = gamma
        self._gamma_inverse = gamma_inverse
        if is_identity is None:
            # A 0/1 matrix with exactly n ones, all on the diagonal, is I.
            is_identity = np.count_nonzero(gamma) == self.n_modes and gamma.diagonal().all()
        #: True if Γ is the identity, i.e. the transform is plain Jordan-Wigner.
        self.is_identity_encoding = bool(is_identity)

    @property
    def n_qubits(self) -> int:
        """Number of qubits in the image (equal to the number of modes)."""
        return self.n_modes

    def conjugate_planes(self, strings: PackedPaulis) -> Tuple[PackedPaulis, np.ndarray]:
        """``U_Γ P U_Γ† = ± P'`` for every string: the planes of ``P'`` and the ±1 signs."""
        image = linear_encoding_image(strings, self.gamma, self._gamma_inverse)
        y_shifts = _y_counts(strings) - _y_counts(image)
        return image, 1 - (y_shifts & 2)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_modes={self.n_modes})"


class JordanWignerTransform(LinearEncodingTransform):
    """Jordan-Wigner transform on ``n_modes`` spin orbitals: the linear encoding Γ = I.

    Mode ``j`` maps to qubit ``j`` and ``a_j = Z_0 ⊗ ... ⊗ Z_{j-1} ⊗ σ⁻_j``
    with ``σ⁻ = (X + iY) / 2``; the Z string enforces the fermionic
    anti-commutation relations between operators on different modes.  Γ is
    its own inverse, so nothing is inverted.
    """

    def __init__(self, n_modes: int):
        identity = identity_matrix(n_modes)
        self._bind(identity, identity, is_identity=True)


class BravyiKitaevTransform(LinearEncodingTransform):
    """Bravyi-Kitaev transform realized as a linear encoding.

    The encoding matrix is the Fenwick-tree partial-sum matrix; the resulting
    operators have O(log n) weight, matching the textbook construction up to a
    basis-ordering convention.
    """

    def __init__(self, n_modes: int):
        super().__init__(bravyi_kitaev_matrix(n_modes))


class ParityTransform(LinearEncodingTransform):
    """Parity transform: qubit ``j`` stores the parity of modes ``0..j``."""

    def __init__(self, n_modes: int):
        super().__init__(parity_matrix(n_modes))
