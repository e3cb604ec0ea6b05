"""The simulator's ladder-product kernel against the dict operator algebra.

:func:`repro.simulator.ladder_sparse` builds Jordan-Wigner matrices from
ladder-operator products on basis-index bit masks.  The oracle,
``operator_oracle``, multiplies the same operators out as Pauli-string dicts
and sums their signed permutations.  The two share nothing but
:class:`~repro.operators.PauliString`'s matrix export on the oracle side, so
agreement pins the Hamiltonian, every UCC generator and the particle number
of the simulator behind Fig. 5.  The 14-spin-orbital water Hamiltonian is
compared in the slow tier (``benchmarks/test_ladder_kernel_water.py``).
"""

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

import operator_oracle
from operator_oracle import (
    FermionOperator,
    fermion_sparse,
    generator,
    hamiltonian_operator,
    jordan_wigner,
    number_operator_sparse,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.simulator import (
    expectation_value,
    fci_ground_state_energy,
    hamiltonian_sparse_matrix,
    hartree_fock_state,
    ladder_sparse,
    particle_number,
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


class TestHamiltonian:
    def test_matrix_matches_the_oracle(self, system):
        hamiltonian, oracle_matrix = system
        assert max_difference(hamiltonian_sparse_matrix(hamiltonian), oracle_matrix) <= 1e-12

    def test_fci_energy_matches_the_oracle(self, system):
        hamiltonian, oracle_matrix = system
        oracle_energy = operator_oracle.ground_state(
            jordan_wigner(hamiltonian_operator(hamiltonian), hamiltonian.n_spin_orbitals),
            n_particles=hamiltonian.n_electrons,
        ).energy
        assert abs(fci_ground_state_energy(hamiltonian) - oracle_energy) <= 1e-10

    def test_prepared_state_energies_match_the_oracle(self, system):
        """All UCCSD terms at seeded random parameters, each factor by expm_multiply."""
        hamiltonian, oracle_matrix = system
        n, n_electrons = hamiltonian.n_spin_orbitals, hamiltonian.n_electrons
        terms = uccsd_excitation_terms(n, n_electrons)
        parameters = np.random.default_rng(7).uniform(-0.3, 0.3, len(terms))
        state = UccAnsatz(n, n_electrons, list(terms)).prepare_state(parameters)
        oracle_state = hartree_fock_state(n, n_electrons)
        for term, parameter in zip(terms, parameters):
            factor = fermion_sparse(generator(term, parameter), n)
            oracle_state = expm_multiply(factor, oracle_state)
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
        ansatz = UccAnsatz(n_spin_orbitals, n_electrons)
        for term in terms:
            oracle = fermion_sparse(generator(term), n_spin_orbitals)
            assert max_difference(ansatz._build_generator(term), oracle) == 0, term

    def test_full_water_generators_cube_to_minus_themselves(self):
        """G³ = −G for every single and double of water (14 spin orbitals,
        10 electrons), so exp(θG) = I + sin θ·G + (1 − cos θ)·G²."""
        terms = uccsd_excitation_terms(14, 10)
        assert sum(term.is_single for term in terms) == 20
        assert sum(term.is_double for term in terms) == 120
        ansatz = UccAnsatz(14, 10)
        for term in terms:
            g = ansatz._build_generator(term)
            assert (g @ g @ g + g).count_nonzero() == 0, term


class TestParticleNumber:
    @pytest.mark.parametrize("n_qubits", [1, 3, 6, 9])
    def test_random_states_match_the_number_operator(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        number = number_operator_sparse(n_qubits)
        for _ in range(3):
            state = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
            assert particle_number(state, n_qubits) == pytest.approx(
                expectation_value(number, state), rel=1e-12
            )

    def test_wrong_register_size_raises(self):
        with pytest.raises(ValueError, match="register size"):
            particle_number(np.ones(8), 2)


class TestKernel:
    def test_products_match_the_oracle_term_by_term(self):
        """Repeated modes, number operators, reversed orders and a constant."""
        rng = np.random.default_rng(3)
        n = 5
        products = [((), 0.25)]
        for length in (1, 2, 3, 4, 5):
            for _ in range(12):
                modes = rng.integers(0, n, size=length).tolist()
                daggers = rng.integers(0, 2, size=length).astype(bool).tolist()
                products.append((tuple(zip(modes, daggers)), complex(*rng.normal(size=2))))
        for product, coefficient in products:
            oracle = fermion_sparse(FermionOperator(product, coefficient), n)
            assert max_difference(ladder_sparse([(product, coefficient)], n), oracle) <= 1e-15
        oracle_sum = fermion_sparse(
            sum((FermionOperator(p, c) for p, c in products), FermionOperator.zero()), n
        )
        assert max_difference(ladder_sparse(products, n), oracle_sum) <= 1e-12

    def test_vanishing_and_empty_sums_are_zero_matrices(self):
        for products in ([], [(((1, True), (1, True)), 2.0)], [(((0, False), (0, False)), 1.0)]):
            matrix = ladder_sparse(products, 3)
            assert matrix.shape == (8, 8) and matrix.count_nonzero() == 0

    def test_mode_outside_the_register_raises(self):
        with pytest.raises(ValueError, match="mode 3 out of range for 3 modes"):
            ladder_sparse([(((3, True),), 1.0)], 3)
