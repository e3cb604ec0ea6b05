"""Exact (full configuration interaction) reference energies.

Sparse diagonalization of the qubit Hamiltonian provides the exact ground
state against which VQE convergence (Fig. 5 of the paper, chemical accuracy
threshold) is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from repro.chemistry import MolecularHamiltonian
from repro.chemistry.hamiltonian import INTEGRAL_TOLERANCE
from repro.simulator.statevector import ladder_sparse, occupations

#: Chemical accuracy threshold in Hartree (1 kcal/mol).
CHEMICAL_ACCURACY = 1.6e-3


@dataclass
class GroundStateResult:
    """Ground-state energy and eigenvector of a (possibly sector-projected) Hamiltonian."""

    energy: float
    state: np.ndarray


def ground_state(
    operator: sparse.spmatrix, n_particles: Optional[int] = None
) -> GroundStateResult:
    """Lowest eigenpair of a qubit Hamiltonian, optionally in a particle-number sector.

    Parameters
    ----------
    operator:
        Hermitian sparse matrix on a register of ``log2(dim)`` qubits.
    n_particles:
        If given, the Hamiltonian is restricted to the subspace with that
        total Jordan-Wigner particle number before diagonalization.
    """
    matrix = sparse.csr_matrix(operator)
    dim = matrix.shape[0]

    if n_particles is not None:
        sector = np.flatnonzero(occupations(dim.bit_length() - 1) == n_particles)
        if sector.size == 0:
            raise ValueError(f"no basis states with {n_particles} particles")
        matrix = matrix[np.ix_(sector, sector)]
        energy, vectors = _lowest_eigenpair(matrix)
        state = np.zeros(dim, dtype=complex)
        state[sector] = vectors
        return GroundStateResult(energy=energy, state=state)

    energy, vector = _lowest_eigenpair(matrix)
    return GroundStateResult(energy=energy, state=vector)


def _lowest_eigenpair(matrix: sparse.spmatrix) -> Tuple[float, np.ndarray]:
    dim = matrix.shape[0]
    if dim <= 64:
        dense = matrix.toarray()
        eigenvalues, eigenvectors = np.linalg.eigh(dense)
        return float(eigenvalues[0]), eigenvectors[:, 0]
    eigenvalues, eigenvectors = eigsh(matrix.tocsc(), k=1, which="SA")
    return float(eigenvalues[0]), eigenvectors[:, 0]


def hamiltonian_sparse_matrix(hamiltonian: MolecularHamiltonian) -> sparse.csr_matrix:
    """Jordan-Wigner sparse matrix of a molecular Hamiltonian.

    The ladder products are ``a†_p a_q`` and ``a†_p a†_q a_s a_r`` with
    coefficients ``h_pq`` and ``½ ⟨pq|rs⟩``, each kept only above
    :data:`~repro.chemistry.hamiltonian.INTEGRAL_TOLERANCE`, plus the constant.
    """
    one_body = hamiltonian.one_body
    two_body = 0.5 * hamiltonian.two_body
    products = [((), hamiltonian.constant)]
    for p, q in _significant(one_body):
        products.append((((p, True), (q, False)), one_body[p, q]))
    for p, q, r, s in _significant(two_body):
        products.append((((p, True), (q, True), (s, False), (r, False)), two_body[p, q, r, s]))
    return ladder_sparse(products, hamiltonian.n_spin_orbitals)


def _significant(integrals: np.ndarray):
    """Index tuples of the entries above the tolerance, in C order."""
    return zip(*(axis.tolist() for axis in np.nonzero(np.abs(integrals) > INTEGRAL_TOLERANCE)))


def fci_ground_state_energy(hamiltonian: MolecularHamiltonian) -> float:
    """Exact ground-state energy of a molecular Hamiltonian in its particle sector."""
    matrix = hamiltonian_sparse_matrix(hamiltonian)
    return ground_state(matrix, n_particles=hamiltonian.n_electrons).energy


def is_chemically_accurate(energy: float, reference: float) -> bool:
    """True if ``energy`` is within chemical accuracy of ``reference``."""
    return abs(energy - reference) <= CHEMICAL_ACCURACY
