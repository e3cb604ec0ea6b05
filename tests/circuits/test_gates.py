"""Unit tests for gate primitives."""

import pickle

import numpy as np
import pytest

from repro.circuits import Gate, cnot, hadamard, rx, ry, rz, s_gate, sdg_gate
from repro.circuits.gates import (
    _FIXED_SINGLE_QUBIT_MATRICES,
    _FIXED_TWO_QUBIT_MATRICES,
    _PARAMETRIZED_MATRICES,
    _trusted_gate,
)

#: Every known gate name at its arity, with an angle for the rotations.
KNOWN_GATES = (
    [(name, (3,), None) for name in _FIXED_SINGLE_QUBIT_MATRICES]
    + [(name, (5, 2), None) for name in _FIXED_TWO_QUBIT_MATRICES]
    + [(name, (1,), -0.375) for name in _PARAMETRIZED_MATRICES]
)


class TestConstruction:
    def test_name_uppercased(self):
        assert Gate("h", (0,)).name == "H"

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            Gate("FOO", (0,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))

    def test_repeated_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            Gate("RZ", (0,))

    def test_constructors(self):
        assert cnot(0, 1).qubits == (0, 1)
        assert hadamard(2).name == "H"
        assert rz(1, 0.3).parameter == 0.3


class TestClassification:
    def test_cnot_properties(self):
        gate = cnot(2, 5)
        assert gate.is_cnot and gate.is_two_qubit and not gate.is_single_qubit
        assert gate.control == 2 and gate.target == 5

    def test_single_qubit_has_no_control(self):
        with pytest.raises(ValueError):
            _ = hadamard(0).control

    def test_diagonal_classification(self):
        assert rz(0, 0.1).is_z_diagonal
        assert s_gate(0).is_z_diagonal
        assert rx(0, 0.1).is_x_diagonal
        assert not hadamard(0).is_z_diagonal

    def test_commutes_disjointly(self):
        assert cnot(0, 1).commutes_disjointly_with(hadamard(2))
        assert not cnot(0, 1).commutes_disjointly_with(hadamard(1))


class TestMatrices:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate("H", (0,)),
            Gate("X", (0,)),
            Gate("Y", (0,)),
            Gate("Z", (0,)),
            Gate("S", (0,)),
            Gate("SDG", (0,)),
            Gate("T", (0,)),
            Gate("SQRTX", (0,)),
            Gate("CNOT", (0, 1)),
            Gate("CZ", (0, 1)),
            Gate("SWAP", (0, 1)),
            rz(0, 0.7),
            rx(0, -1.3),
            ry(0, 2.1),
        ],
    )
    def test_matrices_are_unitary(self, gate):
        matrix = gate.matrix()
        assert np.allclose(matrix @ matrix.conj().T, np.eye(matrix.shape[0]))

    def test_rz_matrix(self):
        theta = 0.5
        matrix = rz(0, theta).matrix()
        assert np.allclose(matrix, np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]))

    def test_s_is_sqrt_z(self):
        assert np.allclose(
            s_gate(0).matrix() @ s_gate(0).matrix(), Gate("Z", (0,)).matrix()
        )

    def test_cnot_matrix_flips_target(self):
        matrix = Gate("CNOT", (0, 1)).matrix()
        # |10> -> |11>
        assert matrix[3, 2] == 1 and matrix[2, 3] == 1


class TestInverses:
    @pytest.mark.parametrize(
        "gate",
        [
            hadamard(0),
            s_gate(0),
            sdg_gate(0),
            Gate("T", (0,)),
            Gate("SQRTX", (0,)),
            rz(0, 0.9),
            rx(0, -0.4),
            ry(0, 1.7),
            cnot(0, 1),
            Gate("SWAP", (0, 1)),
        ],
    )
    def test_inverse_matrix(self, gate):
        product = gate.matrix() @ gate.inverse().matrix()
        assert np.allclose(product, np.eye(product.shape[0]))

    def test_is_inverse_of(self):
        assert s_gate(0).is_inverse_of(sdg_gate(0))
        assert rz(0, 0.5).is_inverse_of(rz(0, -0.5))
        assert not rz(0, 0.5).is_inverse_of(rz(0, 0.5))
        assert not s_gate(0).is_inverse_of(s_gate(1))
        assert cnot(0, 1).is_inverse_of(cnot(0, 1))
        assert not cnot(0, 1).is_inverse_of(cnot(1, 0))

    def test_gate_is_immutable(self):
        gate = hadamard(0)
        with pytest.raises(Exception):
            gate.name = "X"


class TestTrustedConstructor:
    """The internal constructor builds what the public one builds, unchecked."""

    @pytest.mark.parametrize("name,qubits,parameter", KNOWN_GATES)
    def test_matches_public_constructor(self, name, qubits, parameter):
        trusted = _trusted_gate(name, qubits, parameter)
        public = Gate(name, qubits, parameter)
        assert type(trusted) is Gate
        assert trusted == public and public == trusted
        assert hash(trusted) == hash(public)
        assert repr(trusted) == repr(public)
        assert trusted.matrix() is public.matrix()
        assert trusted.inverse() == public.inverse()
        round_trip = pickle.loads(pickle.dumps(trusted))
        assert round_trip == public and hash(round_trip) == hash(public)
        assert repr(round_trip) == repr(public)

    def test_trusted_gate_is_immutable(self):
        gate = _trusted_gate("H", (0,))
        with pytest.raises(Exception):
            gate.name = "X"
