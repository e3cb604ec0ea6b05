"""Exact N-electron-sector statevector simulation and FCI references."""

from repro.simulator.exact import (
    CHEMICAL_ACCURACY,
    GroundStateResult,
    fci_ground_state_energy,
    ground_state,
    hamiltonian_sparse_matrix,
    is_chemically_accurate,
)
from repro.simulator.statevector import (
    expectation_value,
    ladder_sparse,
    normalize,
    state_fidelity,
)

__all__ = [
    "CHEMICAL_ACCURACY",
    "GroundStateResult",
    "ground_state",
    "fci_ground_state_energy",
    "hamiltonian_sparse_matrix",
    "is_chemically_accurate",
    "expectation_value",
    "ladder_sparse",
    "normalize",
    "state_fidelity",
]
