"""Unit tests for the sparse statevector utilities.

Operators are built with the test tree's dict algebra (``operator_oracle``);
``tests/simulator/test_ladder_kernel.py`` compares the simulator's own
ladder-product kernel with it.
"""

import numpy as np
import pytest

import operator_oracle
from operator_oracle import FermionOperator, QubitOperator, fermion_sparse
from repro.operators import PauliString
from repro.simulator import (
    apply_exponential,
    basis_state,
    expectation_value,
    hartree_fock_state,
    normalize,
    particle_number,
    state_fidelity,
)


class TestBasisStates:
    def test_vacuum(self):
        state = basis_state(3, [])
        assert state[0] == 1.0 and np.count_nonzero(state) == 1

    def test_single_occupation_msb_convention(self):
        # Qubit 0 occupied -> index 4 on three qubits.
        state = basis_state(3, [0])
        assert state[4] == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            basis_state(2, [5])

    def test_hartree_fock_state(self):
        state = hartree_fock_state(4, 2)
        # Modes 0 and 1 occupied -> index 0b1100 = 12.
        assert state[12] == 1.0

    def test_hartree_fock_invalid_count(self):
        with pytest.raises(ValueError):
            hartree_fock_state(2, 5)

    def test_particle_number_of_hf_state(self):
        state = hartree_fock_state(5, 3)
        assert np.isclose(particle_number(state, 5), 3.0)


class TestExpectation:
    def test_z_expectation(self):
        operator = PauliString("ZI").to_sparse()
        assert np.isclose(expectation_value(operator, basis_state(2, [])), 1.0)
        assert np.isclose(expectation_value(operator, basis_state(2, [0])), -1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation_value(PauliString("Z").to_sparse(), basis_state(2, []))

    def test_number_operator_expectation(self):
        number_op = fermion_sparse(FermionOperator.number(1), 3)
        assert np.isclose(expectation_value(number_op, basis_state(3, [1])), 1.0)
        assert np.isclose(expectation_value(number_op, basis_state(3, [0, 2])), 0.0)


class TestExponentials:
    def test_exponential_preserves_norm(self):
        generator = fermion_sparse(
            FermionOperator.double_excitation(2, 3, 0, 1, 1.0).anti_hermitian_part(), 4
        )
        state = apply_exponential(generator, hartree_fock_state(4, 2), scale=0.37)
        assert np.isclose(np.linalg.norm(state), 1.0)

    def test_exponential_preserves_particle_number(self):
        generator = fermion_sparse(
            FermionOperator.double_excitation(2, 3, 0, 1, 1.0).anti_hermitian_part(), 4
        )
        state = apply_exponential(generator, hartree_fock_state(4, 2), scale=0.8)
        assert np.isclose(particle_number(state, 4), 2.0)

    def test_zero_angle_is_identity(self):
        generator = fermion_sparse(
            FermionOperator.single_excitation(2, 0).anti_hermitian_part(), 3
        )
        reference = hartree_fock_state(3, 1)
        assert np.allclose(apply_exponential(generator, reference, scale=0.0), reference)

    def test_rotation_angle_pi_maps_between_determinants(self):
        # exp((pi/2)(a†_1 a_0 - a†_0 a_1)) maps |10> to |01> up to phase.
        generator = fermion_sparse(
            FermionOperator.single_excitation(1, 0).anti_hermitian_part(), 2
        )
        state = apply_exponential(generator, basis_state(2, [0]), scale=np.pi / 2)
        assert np.isclose(abs(state[1]), 1.0, atol=1e-8)

    def test_dimension_mismatch(self):
        generator = fermion_sparse(FermionOperator.number(0), 2)
        with pytest.raises(ValueError):
            apply_exponential(generator, basis_state(3, []))


class TestHelpers:
    def test_normalize(self):
        state = normalize(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(state), 1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(4))

    def test_fidelity_bounds(self):
        a, b = basis_state(2, [0]), basis_state(2, [1])
        assert np.isclose(state_fidelity(a, a), 1.0)
        assert np.isclose(state_fidelity(a, b), 0.0)


class TestSparseBasisStates:
    """Regression: the sparse path must never allocate dense 2**n arrays."""

    def test_sparse_matches_dense_small(self):
        dense = basis_state(4, [0, 2])
        sparse_state = basis_state(4, [0, 2], sparse=True)
        assert sparse_state.shape == (16, 1)
        assert sparse_state.nnz == 1
        np.testing.assert_allclose(sparse_state.toarray().ravel(), dense)

    def test_hartree_fock_sparse_matches_dense(self):
        dense = hartree_fock_state(5, 3)
        sparse_state = hartree_fock_state(5, 3, sparse=True)
        np.testing.assert_allclose(sparse_state.toarray().ravel(), dense)

    def test_sparse_at_30_qubits_stays_tiny(self):
        # 2**30 complex amplitudes would be 16 GiB dense; the sparse column
        # vector must hold exactly one stored entry at the MSB-convention index.
        n_qubits = 30
        state = basis_state(n_qubits, [0, n_qubits - 1], sparse=True)
        assert state.shape == (2 ** n_qubits, 1)
        assert state.nnz == 1
        index = (1 << (n_qubits - 1)) | 1
        assert state[index, 0] == 1.0

    def test_hartree_fock_sparse_at_24_qubits(self):
        n_qubits, n_electrons = 24, 6
        state = hartree_fock_state(n_qubits, n_electrons, sparse=True)
        assert state.nnz == 1
        # First n_electrons modes filled = the n_electrons most significant bits.
        expected = ((1 << n_electrons) - 1) << (n_qubits - n_electrons)
        assert state[expected, 0] == 1.0

    def test_sparse_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            basis_state(2, [5], sparse=True)


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
        state = basis_state(2, [0])
        assert operator_oracle.expectation_value(qubit_op, state) == pytest.approx(-1.5 - 0.5)
