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
when the Y count changes by 2 mod 4.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.operators import FermionOperator, PackedPaulis, QubitOperator, linear_encoding_image
from repro.transforms.base import FermionQubitTransform
from repro.transforms.binary import (
    as_gf2,
    bravyi_kitaev_matrix,
    gf2_inverse,
    identity_matrix,
    parity_matrix,
)
from repro.transforms.jordan_wigner import JordanWignerTransform


def _y_counts(packed: PackedPaulis) -> np.ndarray:
    """Number of Y factors of every string, as an ``(m,)`` int array."""
    return np.bitwise_count(packed.x & packed.z).sum(axis=-1, dtype=np.int64)


class LinearEncodingTransform(FermionQubitTransform):
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
        self._gamma_inverse = gf2_inverse(gamma)
        super().__init__(gamma.shape[0])
        self.gamma = gamma
        self._jordan_wigner = JordanWignerTransform(self.n_modes)

    @property
    def is_identity_encoding(self) -> bool:
        """True if Γ is the identity, i.e. the transform is plain Jordan-Wigner."""
        return bool(np.array_equal(self.gamma, identity_matrix(self.n_modes)))

    def annihilation_operator(self, mode: int) -> QubitOperator:
        return self.conjugate(self._jordan_wigner.annihilation_operator(mode))

    def transform(self, operator: FermionOperator) -> QubitOperator:
        # Conjugating the full JW image once is cheaper than conjugating each
        # ladder-operator factor separately.
        return self.conjugate(self._jordan_wigner.transform(operator))

    def conjugate(self, operator: QubitOperator) -> QubitOperator:
        """``U_Γ O U_Γ†``, term by term in input order, signed by the Y-count rule."""
        if self.is_identity_encoding:
            return operator
        image, signs = self.conjugate_planes(PackedPaulis.from_strings(operator.terms))
        # Conjugation permutes the Pauli strings, so no two terms collide.
        return QubitOperator(
            operator.n_qubits,
            {
                string: sign * coefficient
                for string, sign, coefficient in zip(
                    image.to_strings(), signs.tolist(), operator.terms.values()
                )
            },
        )

    def conjugate_planes(self, strings: PackedPaulis) -> Tuple[PackedPaulis, np.ndarray]:
        """``U_Γ P U_Γ† = ± P'`` for every string: the planes of ``P'`` and the ±1 signs."""
        image = linear_encoding_image(strings, self.gamma, self._gamma_inverse)
        y_shifts = _y_counts(strings) - _y_counts(image)
        return image, 1 - (y_shifts & 2)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_modes={self.n_modes})"


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


def bravyi_kitaev(operator: FermionOperator, n_modes: Optional[int] = None) -> QubitOperator:
    """Transform ``operator`` with the Bravyi-Kitaev linear encoding."""
    if n_modes is None:
        n_modes = operator.max_orbital() + 1
        if n_modes <= 0:
            raise ValueError("cannot infer mode count; pass n_modes")
    return BravyiKitaevTransform(n_modes).transform(operator)


def parity_transform(operator: FermionOperator, n_modes: Optional[int] = None) -> QubitOperator:
    """Transform ``operator`` with the parity linear encoding."""
    if n_modes is None:
        n_modes = operator.max_orbital() + 1
        if n_modes <= 0:
            raise ValueError("cannot infer mode count; pass n_modes")
    return ParityTransform(n_modes).transform(operator)


def generalized_transform(
    operator: FermionOperator, gamma: np.ndarray
) -> QubitOperator:
    """Transform ``operator`` with the generalized (Γ-conjugated JW) encoding."""
    return LinearEncodingTransform(gamma).transform(operator)
