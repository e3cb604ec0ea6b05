"""Full water's Hamiltonian from the sector kernel against the oracle.

The paper's Fig. 5 system is water with no frozen core: 14 spin orbitals and
10 electrons.  :func:`repro.simulator.hamiltonian_sparse_matrix` builds its
real matrix on the 1001 states with 10 electrons; the oracle multiplies the
same :class:`operator_oracle.FermionOperator` out as Pauli-string dicts on all
16384 states and cuts the sector out by popcount.  The smaller systems are
compared in every sector in ``tests/simulator/test_ladder_kernel.py``.
"""

import numpy as np
import pytest

import operator_oracle
from operator_oracle import fermion_sparse, hamiltonian_operator, sector
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.simulator import fci_ground_state_energy, hamiltonian_sparse_matrix


@pytest.fixture(scope="module")
def water():
    return build_molecular_hamiltonian(run_rhf(make_molecule("H2O")), n_frozen_spatial_orbitals=0)


@pytest.fixture(scope="module")
def oracle_matrix(water):
    return fermion_sparse(hamiltonian_operator(water), water.n_spin_orbitals)


def test_full_water_hamiltonian_matches_the_oracle(water, oracle_matrix):
    assert (water.n_spin_orbitals, water.n_electrons) == (14, 10)
    indices = sector(14, 10)
    matrix = hamiltonian_sparse_matrix(water)
    assert matrix.shape == (1001, 1001) and matrix.dtype == np.float64
    assert abs(matrix - oracle_matrix[np.ix_(indices, indices)]).max() <= 1e-12


def test_full_water_fci_energy_matches_the_oracle(water, oracle_matrix):
    oracle = operator_oracle.ground_state(oracle_matrix, n_particles=water.n_electrons)
    assert abs(fci_ground_state_energy(water) - oracle.energy) <= 1e-10
