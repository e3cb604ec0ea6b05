"""Exact statevector simulation and FCI reference energies."""

from repro.simulator.exact import (
    CHEMICAL_ACCURACY,
    GroundStateResult,
    fci_ground_state_energy,
    ground_state,
    hamiltonian_sparse_matrix,
    is_chemically_accurate,
)
from repro.simulator.statevector import (
    apply_exponential,
    basis_state,
    expectation_value,
    hartree_fock_state,
    ladder_sparse,
    normalize,
    particle_number,
    state_fidelity,
)

__all__ = [
    "CHEMICAL_ACCURACY",
    "GroundStateResult",
    "ground_state",
    "fci_ground_state_energy",
    "hamiltonian_sparse_matrix",
    "is_chemically_accurate",
    "basis_state",
    "hartree_fock_state",
    "expectation_value",
    "apply_exponential",
    "ladder_sparse",
    "normalize",
    "particle_number",
    "state_fidelity",
]
