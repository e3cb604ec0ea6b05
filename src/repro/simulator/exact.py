"""Exact (full configuration interaction) reference energies.

Sparse diagonalization of the Hamiltonian on its N-electron sector provides
the exact ground state against which VQE convergence (Fig. 5 of the paper,
chemical accuracy threshold) is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from repro.chemistry import MolecularHamiltonian
from repro.chemistry.hamiltonian import INTEGRAL_TOLERANCE
from repro.simulator.statevector import ladder_sparse

#: Chemical accuracy threshold in Hartree (1 kcal/mol).
CHEMICAL_ACCURACY = 1.6e-3


@dataclass
class GroundStateResult:
    """Ground-state energy and eigenvector of a Hamiltonian matrix."""

    energy: float
    state: np.ndarray


def ground_state(operator: sparse.spmatrix) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian sparse matrix.

    Registers of at most 64 states are diagonalized densely, larger ones by
    ARPACK, which on the simulator's real sector matrices runs in real
    arithmetic.
    """
    matrix = sparse.csr_matrix(operator)
    if matrix.shape[0] <= 64:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix.toarray())
    else:
        eigenvalues, eigenvectors = eigsh(matrix, k=1, which="SA")
    return GroundStateResult(energy=float(eigenvalues[0]), state=eigenvectors[:, 0])


def hamiltonian_sparse_matrix(hamiltonian: MolecularHamiltonian) -> sparse.csr_matrix:
    """Jordan-Wigner sparse matrix of a molecular Hamiltonian on its electron sector.

    The matrix is real, of dimension ``C(n_spin_orbitals, n_electrons)`` (see
    :func:`~repro.simulator.statevector.ladder_sparse`).  The ladder products
    are ``a†_p a_q`` and ``a†_p a†_q a_s a_r`` with coefficients ``h_pq`` and
    ``½ ⟨pq|rs⟩``, each kept only above
    :data:`~repro.chemistry.hamiltonian.INTEGRAL_TOLERANCE`, plus the constant.
    """
    one_body = hamiltonian.one_body
    two_body = 0.5 * hamiltonian.two_body
    products = [((), hamiltonian.constant)]
    for p, q in _significant(one_body):
        products.append((((p, True), (q, False)), one_body[p, q]))
    for p, q, r, s in _significant(two_body):
        products.append((((p, True), (q, True), (s, False), (r, False)), two_body[p, q, r, s]))
    return ladder_sparse(products, hamiltonian.n_spin_orbitals, hamiltonian.n_electrons)


def _significant(integrals: np.ndarray):
    """Index tuples of the entries above the tolerance, in C order."""
    return zip(*(axis.tolist() for axis in np.nonzero(np.abs(integrals) > INTEGRAL_TOLERANCE)))


def fci_ground_state_energy(hamiltonian: MolecularHamiltonian) -> float:
    """Exact ground-state energy of a molecular Hamiltonian in its electron sector."""
    return ground_state(hamiltonian_sparse_matrix(hamiltonian)).energy


def is_chemically_accurate(energy: float, reference: float) -> bool:
    """True if ``energy`` is within chemical accuracy of ``reference``."""
    return abs(energy - reference) <= CHEMICAL_ACCURACY
