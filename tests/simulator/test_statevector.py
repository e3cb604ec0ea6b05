"""Unit tests for the sparse statevector utilities.

Operators are built with the test tree's dict algebra (``operator_oracle``);
``tests/simulator/test_ladder_kernel.py`` compares the simulator's own
ladder-product kernel with it.
"""

import numpy as np
import pytest

import operator_oracle
from operator_oracle import (
    FermionOperator,
    QubitOperator,
    fermion_sparse,
    number_operator_sparse,
    sector,
)
from repro.operators import PauliString
from repro.simulator import expectation_value, normalize, state_fidelity
from repro.vqe import ExcitationTerm, UccAnsatz


def basis_vector(n_qubits, index):
    state = np.zeros(2**n_qubits)
    state[index] = 1.0
    return state


def full_register(state, n_qubits, n_electrons):
    """An N-electron sector state written out on all ``2**n_qubits`` basis states."""
    full = np.zeros(2**n_qubits)
    full[sector(n_qubits, n_electrons)] = state
    return full


class TestBasisStates:
    """The ansatz's Hartree-Fock reference: modes ``0..N−1`` filled, qubit 0 the MSB."""

    def test_vacuum(self):
        state = full_register(UccAnsatz(3, 0).prepare_state([]), 3, 0)
        assert state[0] == 1.0 and np.count_nonzero(state) == 1

    def test_single_occupation_msb_convention(self):
        # Qubit 0 occupied -> index 4 on three qubits.
        state = full_register(UccAnsatz(3, 1).prepare_state([]), 3, 1)
        assert state[4] == 1.0 and np.count_nonzero(state) == 1

    def test_out_of_range_rejected(self):
        term = ExcitationTerm(creation=(5,), annihilation=(0,))
        with pytest.raises(ValueError, match="acts outside a register of 2"):
            UccAnsatz(2, 1, [term])
        with pytest.raises(ValueError, match="acts outside a register of 2"):
            UccAnsatz(2, 1).add_term(term)

    def test_hartree_fock_state(self):
        state = full_register(UccAnsatz(4, 2).prepare_state([]), 4, 2)
        # Modes 0 and 1 occupied -> index 0b1100 = 12.
        assert state[12] == 1.0 and np.count_nonzero(state) == 1
        assert np.array_equal(state, operator_oracle.hartree_fock_state(4, 2))

    def test_hartree_fock_invalid_count(self):
        with pytest.raises(ValueError, match="invalid electron count"):
            UccAnsatz(2, 5)

    def test_particle_number_of_hf_state(self):
        state = full_register(UccAnsatz(5, 3).prepare_state([]), 5, 3)
        assert np.isclose(expectation_value(number_operator_sparse(5), state), 3.0)


class TestExpectation:
    def test_z_expectation(self):
        operator = PauliString("ZI").to_sparse()
        # Qubit 0 is the most significant bit: |10> is index 2.
        assert np.isclose(expectation_value(operator, basis_vector(2, 0)), 1.0)
        assert np.isclose(expectation_value(operator, basis_vector(2, 2)), -1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation_value(PauliString("Z").to_sparse(), basis_vector(2, 0))

    def test_number_operator_expectation(self):
        number_op = fermion_sparse(FermionOperator.number(1), 3)
        assert np.isclose(expectation_value(number_op, basis_vector(3, 0b010)), 1.0)
        assert np.isclose(expectation_value(number_op, basis_vector(3, 0b101)), 0.0)


class TestExponentials:
    """The ansatz's closed-form factors exp(θG) = I + sin θ·G + (1 − cos θ)·G²."""

    def test_exponential_preserves_norm(self):
        double = ExcitationTerm(creation=(2, 3), annihilation=(0, 1))
        state = UccAnsatz(4, 2, [double]).prepare_state([0.37])
        assert np.isclose(np.linalg.norm(state), 1.0)

    def test_exponential_preserves_particle_number(self):
        double = ExcitationTerm(creation=(2, 3), annihilation=(0, 1))
        state = full_register(UccAnsatz(4, 2, [double]).prepare_state([0.8]), 4, 2)
        assert np.count_nonzero(state) == 2
        assert np.isclose(expectation_value(number_operator_sparse(4), state), 2.0)

    def test_zero_angle_is_identity(self):
        single = ExcitationTerm(creation=(2,), annihilation=(0,))
        ansatz = UccAnsatz(3, 1, [single])
        assert np.array_equal(ansatz.prepare_state([0.0]), UccAnsatz(3, 1).prepare_state([]))

    def test_rotation_angle_pi_maps_between_determinants(self):
        # exp((pi/2)(a†_1 a_0 - a†_0 a_1)) maps |10> to |01> up to phase; the
        # one-particle sector of two modes is (|01>, |10>).
        single = ExcitationTerm(creation=(1,), annihilation=(0,))
        state = UccAnsatz(2, 1, [single]).prepare_state([np.pi / 2])
        assert np.isclose(abs(state[0]), 1.0, atol=1e-8)

    def test_dimension_mismatch(self):
        single = ExcitationTerm(creation=(2,), annihilation=(0,))
        with pytest.raises(ValueError, match="expected 1 parameters, got 2"):
            UccAnsatz(3, 1, [single]).prepare_state([0.1, 0.2])


class TestHelpers:
    def test_normalize(self):
        state = normalize(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(state), 1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(4))

    def test_fidelity_bounds(self):
        a, b = basis_vector(2, 2), basis_vector(2, 1)
        assert np.isclose(state_fidelity(a, a), 1.0)
        assert np.isclose(state_fidelity(a, b), 0.0)


class TestPermutationApplication:
    """The oracle's matrix-free Pauli application vs explicit sparse matrices."""

    def test_apply_pauli_string_matches_matrix(self):
        rng = np.random.default_rng(7)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        for label in ("IXYZ", "YYII", "ZIZX", "IIII"):
            string = PauliString(label)
            np.testing.assert_allclose(
                operator_oracle.apply_pauli_string(string, state, 0.5 - 0.25j),
                (0.5 - 0.25j) * (string.to_sparse() @ state),
                atol=1e-12,
            )

    def test_apply_qubit_operator_matches_matrix(self):
        qubit_op = QubitOperator.from_label("XYZ", 0.3) + QubitOperator.from_label(
            "ZZI", -1.2j
        ) + QubitOperator.from_label("III", 0.7)
        rng = np.random.default_rng(11)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        np.testing.assert_allclose(
            operator_oracle.apply_qubit_operator(qubit_op, state),
            qubit_op.to_sparse() @ state,
            atol=1e-12,
        )

    def test_expectation_value_qubit_operator_is_matrix_free(self):
        qubit_op = QubitOperator.from_label("ZI", 1.5) + QubitOperator.from_label(
            "IZ", -0.5
        )
        # Qubit 0 occupied: <ZI> = -1 and <IZ> = +1.
        state = basis_vector(2, 2)
        assert operator_oracle.expectation_value(qubit_op, state) == pytest.approx(-1.5 - 0.5)
