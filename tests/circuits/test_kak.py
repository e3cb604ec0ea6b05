"""Unit tests for two-qubit invariants and minimal CNOT costs."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

from kak import cnot_cost, is_local_gate, makhlin_invariants
from repro.circuits import Circuit, cnot, hadamard, rz
from repro.circuits.gates import Gate
from repro.operators import PauliString


def random_single_qubit_unitary(rng):
    return unitary_group.rvs(2, random_state=rng)


def dress_with_locals(unitary, rng):
    """Sandwich a 4x4 unitary between random local gates."""
    before = np.kron(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
    after = np.kron(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
    return after @ unitary @ before


CNOT_MATRIX = Gate("CNOT", (0, 1)).matrix()
SWAP_MATRIX = Gate("SWAP", (0, 1)).matrix()
CZ_MATRIX = Gate("CZ", (0, 1)).matrix()


class TestMakhlinInvariants:
    def test_identity_invariants(self):
        g1, g2, g3 = makhlin_invariants(np.eye(4))
        assert np.allclose([g1, g2, g3], [1.0, 0.0, 3.0])

    def test_cnot_invariants(self):
        g1, g2, g3 = makhlin_invariants(CNOT_MATRIX)
        assert np.allclose([g1, g2, g3], [0.0, 0.0, 1.0], atol=1e-8)

    def test_cz_matches_cnot_class(self):
        assert np.allclose(
            makhlin_invariants(CZ_MATRIX), makhlin_invariants(CNOT_MATRIX), atol=1e-8
        )

    def test_swap_invariants(self):
        g1, g2, g3 = makhlin_invariants(SWAP_MATRIX)
        assert np.allclose([g1, g2, g3], [-1.0, 0.0, -3.0], atol=1e-8)

    def test_invariants_are_local_invariants(self):
        rng = np.random.default_rng(5)
        dressed = dress_with_locals(CNOT_MATRIX, rng)
        assert np.allclose(
            makhlin_invariants(dressed), makhlin_invariants(CNOT_MATRIX), atol=1e-7
        )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            makhlin_invariants(np.ones((4, 4)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            makhlin_invariants(np.eye(2))


class TestLocalDetection:
    def test_identity_is_local(self):
        assert is_local_gate(np.eye(4))

    def test_kron_is_local(self):
        rng = np.random.default_rng(0)
        local = np.kron(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
        assert is_local_gate(local)

    def test_cnot_is_not_local(self):
        assert not is_local_gate(CNOT_MATRIX)


class TestCnotCost:
    def test_local_gate_costs_zero(self):
        rng = np.random.default_rng(1)
        local = np.kron(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
        assert cnot_cost(local) == 0

    def test_cnot_costs_one(self):
        assert cnot_cost(CNOT_MATRIX) == 1

    def test_cz_costs_one(self):
        assert cnot_cost(CZ_MATRIX) == 1

    def test_dressed_cnot_costs_one(self):
        rng = np.random.default_rng(2)
        assert cnot_cost(dress_with_locals(CNOT_MATRIX, rng)) == 1

    def test_xx_quarter_rotation_costs_one(self):
        # exp(-i π/4 XX / ... ) with CNOT-equivalent strength.
        xx = PauliString("XX").to_dense()
        gate = expm(-1j * np.pi / 4 * xx)
        assert cnot_cost(gate) == 1

    def test_generic_xx_rotation_costs_two(self):
        xx = PauliString("XX").to_dense()
        gate = expm(-1j * 0.3 * xx)
        assert cnot_cost(gate) == 2

    def test_controlled_phase_costs_two(self):
        gate = np.diag([1.0, 1.0, 1.0, np.exp(0.43j)])
        assert cnot_cost(gate) == 2

    def test_two_cnot_circuit_costs_at_most_two(self):
        circuit = Circuit(2, [cnot(0, 1), rz(0, 0.3), hadamard(1), cnot(0, 1)])
        assert cnot_cost(circuit.to_unitary()) <= 2

    def test_swap_costs_three(self):
        assert cnot_cost(SWAP_MATRIX) == 3

    def test_random_unitary_costs_at_most_three(self):
        rng = np.random.default_rng(3)
        costs = [cnot_cost(unitary_group.rvs(4, random_state=rng)) for _ in range(5)]
        assert all(c <= 3 for c in costs)
        assert max(costs) == 3  # a Haar-random gate almost surely needs three


class TestFigureThreeBosonicTerm:
    """Sec. III-A / Fig. 3: a compressed bosonic double excitation costs 2 CNOTs."""

    @staticmethod
    def bosonic_givens_unitary(theta: float) -> np.ndarray:
        """Compressed bosonic double excitation exp(θ(σ+σ- - σ-σ+)) on two qubits."""
        generator = 0.5j * theta * (
            PauliString("YX").to_dense() - PauliString("XY").to_dense()
        )
        return expm(generator)

    @pytest.mark.parametrize("theta", [0.17, 0.73, 1.91])
    def test_bosonic_term_costs_exactly_two_cnots(self, theta):
        assert cnot_cost(self.bosonic_givens_unitary(theta)) == 2
