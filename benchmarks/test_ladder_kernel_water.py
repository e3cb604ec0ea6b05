"""Full water's Hamiltonian from the ladder-product kernel against the oracle.

The paper's Fig. 5 system is water with no frozen core: 14 spin orbitals and
10 electrons.  :func:`repro.simulator.hamiltonian_sparse_matrix` builds its
matrix on basis-index bit masks; the oracle multiplies the same
:class:`operator_oracle.FermionOperator` out as Pauli-string dicts.  The
smaller systems are compared in ``tests/simulator/test_ladder_kernel.py``.
"""

import pytest

from operator_oracle import fermion_sparse, hamiltonian_operator
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.simulator import fci_ground_state_energy, ground_state, hamiltonian_sparse_matrix


@pytest.fixture(scope="module")
def water():
    return build_molecular_hamiltonian(run_rhf(make_molecule("H2O")), n_frozen_spatial_orbitals=0)


@pytest.fixture(scope="module")
def oracle_matrix(water):
    return fermion_sparse(hamiltonian_operator(water), water.n_spin_orbitals)


def test_full_water_hamiltonian_matches_the_oracle(water, oracle_matrix):
    assert water.n_spin_orbitals == 14
    assert abs(hamiltonian_sparse_matrix(water) - oracle_matrix).max() <= 1e-12


def test_full_water_fci_energy_matches_the_oracle(water, oracle_matrix):
    oracle = ground_state(oracle_matrix, n_particles=water.n_electrons)
    assert abs(fci_ground_state_energy(water) - oracle.energy) <= 1e-10
