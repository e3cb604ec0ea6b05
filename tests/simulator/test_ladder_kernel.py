"""The simulator's sector kernel against the full-register dict operator algebra.

:func:`repro.simulator.ladder_sparse` builds the real Jordan-Wigner matrix of
a particle-conserving ladder-operator sum on one N-particle sector, from
ladder-operator products on basis-index bit masks.  The oracle,
``operator_oracle``, multiplies the same operators out as Pauli-string dicts
on all ``2**n`` basis states and cuts the sector out by popcount afterwards.
The two share nothing but :class:`~repro.operators.PauliString`'s matrix
export on the oracle side, so agreement pins the Hamiltonian, every UCC
generator and the prepared states of the simulator behind Fig. 5.  The
14-spin-orbital water Hamiltonian is compared in the slow tier
(``benchmarks/test_ladder_kernel_water.py``).
"""

import dataclasses

import numpy as np
import pytest

import operator_oracle
from operator_oracle import (
    FermionOperator,
    fermion_sparse,
    generator,
    hamiltonian_operator,
    number_operator_sparse,
    sector,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.simulator import (
    expectation_value,
    fci_ground_state_energy,
    hamiltonian_sparse_matrix,
    ladder_sparse,
)
from repro.vqe import UccAnsatz, uccsd_excitation_terms

#: (molecule, frozen spatial orbitals, active spatial orbitals): 4, 10 and 10 spin orbitals.
SYSTEMS = [("H2", 0, None), ("LiH", 1, 5), ("H2O", 1, 5)]


@pytest.fixture(scope="module", params=SYSTEMS, ids=[name for name, _, _ in SYSTEMS])
def system(request):
    name, frozen, active = request.param
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(name)),
        n_frozen_spatial_orbitals=frozen,
        n_active_spatial_orbitals=active,
    )
    oracle_matrix = fermion_sparse(hamiltonian_operator(hamiltonian), hamiltonian.n_spin_orbitals)
    return hamiltonian, oracle_matrix


def max_difference(a, b) -> float:
    difference = abs(a - b)
    return float(difference.max()) if difference.nnz else 0.0


def oracle_block(oracle, n_modes, n_particles):
    """The oracle's full-register matrix cut down to one particle sector."""
    indices = sector(n_modes, n_particles)
    return oracle[np.ix_(indices, indices)]


class TestHamiltonian:
    def test_matrix_matches_the_oracle(self, system):
        hamiltonian, oracle_matrix = system
        n = hamiltonian.n_spin_orbitals
        for n_electrons in range(n + 1):
            matrix = hamiltonian_sparse_matrix(
                dataclasses.replace(hamiltonian, n_electrons=n_electrons)
            )
            assert matrix.dtype == np.float64
            oracle = oracle_block(oracle_matrix, n, n_electrons)
            assert matrix.shape == oracle.shape
            assert max_difference(matrix, oracle) <= 1e-12, n_electrons

    def test_fci_energy_matches_the_oracle(self, system):
        hamiltonian, oracle_matrix = system
        oracle_energy = operator_oracle.ground_state(
            oracle_matrix, n_particles=hamiltonian.n_electrons
        ).energy
        assert abs(fci_ground_state_energy(hamiltonian) - oracle_energy) <= 1e-10

    def test_prepared_state_energies_match_the_oracle(self, system):
        """All UCCSD terms at seeded random parameters; the oracle applies each
        factor with expm_multiply on the full register."""
        hamiltonian, oracle_matrix = system
        n, n_electrons = hamiltonian.n_spin_orbitals, hamiltonian.n_electrons
        terms = uccsd_excitation_terms(n, n_electrons)
        parameters = np.random.default_rng(7).uniform(-0.3, 0.3, len(terms))
        state = UccAnsatz(n, n_electrons, list(terms)).prepare_state(parameters)
        oracle_state = operator_oracle.prepare_state(terms, parameters, n, n_electrons)
        indices = sector(n, n_electrons)
        assert state.dtype == np.float64
        assert np.abs(state - oracle_state[indices]).max() <= 1e-12
        assert np.linalg.norm(np.delete(oracle_state, indices)) <= 1e-12
        energy = expectation_value(hamiltonian_sparse_matrix(hamiltonian), state)
        assert abs(energy - expectation_value(oracle_matrix, oracle_state)) <= 1e-10


class TestGenerators:
    @pytest.mark.parametrize(
        "n_spin_orbitals, n_electrons, spin_preserving",
        [(12, 4, True), (12, 6, True), (10, 5, True), (6, 2, False), (6, 3, False)],
    )
    def test_every_single_and_double_equals_the_oracle(
        self, n_spin_orbitals, n_electrons, spin_preserving
    ):
        terms = uccsd_excitation_terms(
            n_spin_orbitals, n_electrons, spin_preserving=spin_preserving
        )
        ansatze = [UccAnsatz(n_spin_orbitals, n) for n in range(n_spin_orbitals + 1)]
        indices = [sector(n_spin_orbitals, n) for n in range(n_spin_orbitals + 1)]
        for term in terms:
            oracle = fermion_sparse(generator(term), n_spin_orbitals)
            for ansatz, block in zip(ansatze, indices):
                matrix = ansatz._build_generator(term)
                assert matrix.dtype == np.float64
                assert max_difference(matrix, oracle[np.ix_(block, block)]) == 0, term

    def test_full_water_generators_cube_to_minus_themselves(self):
        """G³ = −G for every single and double of water (14 spin orbitals,
        10 electrons), so exp(θG) = I + sin θ·G + (1 − cos θ)·G²."""
        terms = uccsd_excitation_terms(14, 10)
        assert sum(term.is_single for term in terms) == 20
        assert sum(term.is_double for term in terms) == 120
        ansatz = UccAnsatz(14, 10)
        for term in terms:
            g = ansatz._build_generator(term)
            assert g.shape == (1001, 1001)
            assert (g @ g @ g + g).count_nonzero() == 0, term


class TestSector:
    @pytest.mark.parametrize("n_modes", [1, 3, 6, 9])
    def test_number_operator_is_the_particle_count(self, n_modes):
        """The sector is the oracle's particle-number eigenspace: N on it is N·I."""
        number = number_operator_sparse(n_modes)
        products = [(((mode, True), (mode, False)), 1.0) for mode in range(n_modes)]
        for n_particles in range(n_modes + 1):
            block = oracle_block(number, n_modes, n_particles)
            identity = np.eye(block.shape[0])
            assert np.abs(block.toarray() - n_particles * identity).max() == 0
            assert np.abs(ladder_sparse(products, n_modes, n_particles).toarray()
                          - n_particles * identity).max() == 0

    def test_hartree_fock_is_the_last_sector_state(self):
        # Modes 0 and 1 of 4 filled: index 0b1100, the largest with two bits set.
        state = UccAnsatz(4, 2).prepare_state([])
        assert sector(4, 2)[-1] == 0b1100
        assert state.shape == (6,) and state[-1] == 1.0 and np.count_nonzero(state) == 1

    @pytest.mark.parametrize("n_particles", [-1, 4])
    def test_particle_number_outside_the_register_raises(self, n_particles):
        with pytest.raises(ValueError, match=f"invalid particle number {n_particles}"):
            ladder_sparse([((), 1.0)], 3, n_particles)


class TestKernel:
    def test_products_match_the_oracle_term_by_term(self):
        """Repeated modes, number operators, reversed orders and a constant."""
        rng = np.random.default_rng(3)
        n = 5
        products = [((), 0.25)]
        for half in (1, 2, 3):
            for _ in range(16):
                modes = rng.integers(0, n, size=2 * half).tolist()
                daggers = rng.permutation([True] * half + [False] * half).tolist()
                products.append((tuple(zip(modes, daggers)), float(rng.normal())))
        for n_particles in range(n + 1):
            for product, coefficient in products:
                oracle = oracle_block(
                    fermion_sparse(FermionOperator(product, coefficient), n), n, n_particles
                )
                matrix = ladder_sparse([(product, coefficient)], n, n_particles)
                assert max_difference(matrix, oracle) <= 1e-15
            oracle_sum = oracle_block(fermion_sparse(
                sum((FermionOperator(p, c) for p, c in products), FermionOperator.zero()), n
            ), n, n_particles)
            assert max_difference(ladder_sparse(products, n, n_particles), oracle_sum) <= 1e-12

    def test_vanishing_and_empty_sums_are_zero_matrices(self):
        vanishing = [
            [],
            [(((1, True), (1, True), (0, False), (2, False)), 2.0)],
            [(((0, False), (0, False), (1, True), (2, True)), 1.0)],
        ]
        for products in vanishing:
            matrix = ladder_sparse(products, 3, 1)
            assert matrix.shape == (3, 3) and matrix.count_nonzero() == 0

    @pytest.mark.parametrize(
        "product", [((0, True),), ((1, False),), ((0, True), (1, True), (2, False))]
    )
    def test_product_that_changes_the_particle_number_raises(self, product):
        with pytest.raises(ValueError, match="changes the particle number"):
            ladder_sparse([(product, 1.0)], 3, 1)

    def test_mode_outside_the_register_raises(self):
        with pytest.raises(ValueError, match="mode 3 out of range for 3 modes"):
            ladder_sparse([(((3, True), (0, False)), 1.0)], 3, 1)
