"""Tests for molecular Hamiltonians, active spaces and MP2 amplitudes."""

import numpy as np
import pytest

from operator_oracle import hamiltonian_operator, jordan_wigner
from repro.chemistry import (
    build_molecular_hamiltonian,
    make_molecule,
    mp2_amplitudes,
    mp2_energy_correction,
    ranked_double_excitations,
    run_rhf,
)


@pytest.fixture(scope="module")
def h2_scf():
    return run_rhf(make_molecule("H2"))


@pytest.fixture(scope="module")
def h2_hamiltonian(h2_scf):
    return build_molecular_hamiltonian(h2_scf)


@pytest.fixture(scope="module")
def lih_scf():
    return run_rhf(make_molecule("LiH"))


class TestHamiltonianConstruction:
    def test_h2_dimensions(self, h2_hamiltonian):
        assert h2_hamiltonian.n_spin_orbitals == 4
        assert h2_hamiltonian.n_electrons == 2
        assert h2_hamiltonian.occupied_spin_orbitals() == (0, 1)
        assert h2_hamiltonian.virtual_spin_orbitals() == (2, 3)

    def test_hartree_fock_expectation_matches_scf(self, h2_scf, h2_hamiltonian):
        """<HF|H|HF> computed from the second-quantized integrals equals the SCF energy."""
        occupied = h2_hamiltonian.occupied_spin_orbitals()
        energy = h2_hamiltonian.constant
        energy += sum(h2_hamiltonian.one_body[i, i] for i in occupied)
        energy += 0.5 * sum(
            h2_hamiltonian.two_body[i, j, i, j] - h2_hamiltonian.two_body[i, j, j, i]
            for i in occupied
            for j in occupied
        )
        assert np.isclose(energy, h2_scf.energy, atol=1e-8)

    def test_fermion_operator_is_hermitian(self, h2_hamiltonian):
        operator = hamiltonian_operator(h2_hamiltonian)
        assert operator.is_hermitian()

    def test_h2_fci_ground_state(self, h2_hamiltonian):
        """Exact diagonalization of the qubit Hamiltonian reproduces the known FCI energy."""
        qubit_op = jordan_wigner(
            hamiltonian_operator(h2_hamiltonian), n_modes=h2_hamiltonian.n_spin_orbitals
        )
        ground = float(np.linalg.eigvalsh(qubit_op.to_dense())[0])
        assert np.isclose(ground, -1.13727, atol=2e-4)

    def test_invalid_active_space_rejected(self, h2_scf):
        with pytest.raises(ValueError):
            build_molecular_hamiltonian(h2_scf, n_frozen_spatial_orbitals=3)
        with pytest.raises(ValueError):
            build_molecular_hamiltonian(h2_scf, n_active_spatial_orbitals=9)

    def test_frozen_core_preserves_hf_energy(self, lih_scf):
        """Freezing the Li 1s core leaves <HF|H|HF> equal to the full SCF energy."""
        hamiltonian = build_molecular_hamiltonian(lih_scf, n_frozen_spatial_orbitals=1)
        assert hamiltonian.n_electrons == 2
        occupied = hamiltonian.occupied_spin_orbitals()
        energy = hamiltonian.constant
        energy += sum(hamiltonian.one_body[i, i] for i in occupied)
        energy += 0.5 * sum(
            hamiltonian.two_body[i, j, i, j] - hamiltonian.two_body[i, j, j, i]
            for i in occupied
            for j in occupied
        )
        assert np.isclose(energy, lih_scf.energy, atol=1e-8)

    def test_active_space_reduces_size(self, lih_scf):
        hamiltonian = build_molecular_hamiltonian(
            lih_scf, n_frozen_spatial_orbitals=1, n_active_spatial_orbitals=3
        )
        assert hamiltonian.n_spin_orbitals == 6


class TestMp2:
    def test_h2_mp2_is_negative(self, h2_hamiltonian):
        correction = mp2_energy_correction(h2_hamiltonian)
        assert -0.05 < correction < -0.005

    def test_h2_single_dominant_amplitude(self, h2_hamiltonian):
        amplitudes = mp2_amplitudes(h2_hamiltonian)
        # In a minimal basis H2 only the (0,1) -> (2,3) double excitation contributes.
        dominant = max(amplitudes, key=lambda a: a.importance)
        assert dominant.occupied == (0, 1)
        assert dominant.virtual == (2, 3)

    def test_ranking_is_sorted(self, lih_scf):
        hamiltonian = build_molecular_hamiltonian(lih_scf, n_frozen_spatial_orbitals=1)
        ranked = ranked_double_excitations(hamiltonian)
        importances = [amplitude.importance for amplitude in ranked]
        assert importances == sorted(importances, reverse=True)
        assert all(amplitude.energy <= 0 for amplitude in ranked)

    def test_all_pair_energies_nonpositive(self, h2_hamiltonian):
        assert all(a.energy <= 0 for a in mp2_amplitudes(h2_hamiltonian))
