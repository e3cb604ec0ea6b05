"""Unit tests for exact diagonalization helpers.

Qubit operators come from the test tree's dict algebra; its ``ground_state``
cuts out a particle-number sector when asked and diagonalizes the sparse
matrix with :func:`repro.simulator.ground_state`.
"""

import numpy as np
import pytest

from operator_oracle import FermionOperator, QubitOperator, ground_state, jordan_wigner
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.operators import PauliString
from repro.simulator import CHEMICAL_ACCURACY, fci_ground_state_energy, is_chemically_accurate


class TestGroundState:
    def test_single_qubit_z(self):
        result = ground_state(QubitOperator.from_label("Z"))
        assert np.isclose(result.energy, -1.0)
        assert np.isclose(abs(result.state[1]), 1.0)

    def test_transverse_field_pair(self):
        # H = -X0 X1 - Z0 - Z1 ground energy is -(1 + sqrt(2)) for two qubits? verify numerically.
        operator = (
            QubitOperator.from_label("XX", -1.0)
            + QubitOperator.from_label("ZI", -1.0)
            + QubitOperator.from_label("IZ", -1.0)
        )
        dense = np.sort(np.linalg.eigvalsh(operator.to_dense()))
        result = ground_state(operator)
        assert np.isclose(result.energy, dense[0])

    def test_particle_sector_projection(self):
        # Number operator on 2 modes: ground energy 0 overall but 1 in the
        # single-particle sector.
        number = jordan_wigner(
            FermionOperator.number(0) + FermionOperator.number(1), n_modes=2
        )
        assert np.isclose(ground_state(number).energy, 0.0)
        assert np.isclose(ground_state(number, n_particles=1).energy, 1.0)

    def test_invalid_sector(self):
        with pytest.raises(ValueError):
            ground_state(QubitOperator.from_label("ZZ"), n_particles=5)

    def test_large_register_uses_sparse_path(self):
        operator = QubitOperator.zero(7)
        for qubit in range(7):
            operator += QubitOperator.from_pauli_string(PauliString.single(7, qubit, "Z"), -1.0)
        result = ground_state(operator)
        assert np.isclose(result.energy, -7.0)


class TestChemistryReferences:
    def test_h2_fci_energy(self):
        scf = run_rhf(make_molecule("H2"))
        hamiltonian = build_molecular_hamiltonian(scf)
        assert np.isclose(fci_ground_state_energy(hamiltonian), -1.13727, atol=2e-4)

    def test_fci_below_hartree_fock(self):
        scf = run_rhf(make_molecule("LiH"))
        hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
        assert fci_ground_state_energy(hamiltonian) < scf.energy

    def test_chemical_accuracy_helper(self):
        assert is_chemically_accurate(-1.0, -1.0 + 0.5 * CHEMICAL_ACCURACY)
        assert not is_chemically_accurate(-1.0, -1.0 + 2.0 * CHEMICAL_ACCURACY)
