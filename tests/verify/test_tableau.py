"""Unit tests for the Clifford tableau engine."""

import math

import numpy as np
import pytest

from operator_oracle import DictLinearEncoding, QubitOperator
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, cnot, hadamard, rx, ry, rz, s_gate
from repro.operators import PauliString
from repro.transforms import LinearEncodingTransform, cnot_network_matrix
from repro.verify import (
    CliffordTableau,
    NotCliffordError,
    check_equivalence,
    is_clifford_circuit,
    is_clifford_gate,
)
from repro.verify.tableau import elementary_gates


def _tableau_verdict(a, b):
    """Verdict of the dispatcher's tableau engine, forced."""
    return check_equivalence(a, b, engine="tableau").equivalent


class TestIdentityAndBasics:
    def test_identity_generator_images(self):
        tableau = CliffordTableau.identity(3)
        images = tableau.generator_images()
        assert images[0] == (1, PauliString("XII"))
        assert images[2] == (1, PauliString("IIX"))
        assert images[3] == (1, PauliString("ZII"))
        assert images[5] == (1, PauliString("IIZ"))

    def test_identity_requires_positive_register(self):
        with pytest.raises(ValueError):
            CliffordTableau.identity(0)

    def test_copy_is_independent(self):
        tableau = CliffordTableau.identity(2)
        clone = tableau.copy()
        clone.append_gate_right(hadamard(0))
        assert tableau == CliffordTableau.identity(2)
        assert clone != tableau

    def test_eq_against_other_types(self):
        assert CliffordTableau.identity(1).__eq__(42) is NotImplemented

    def test_repr(self):
        assert "n_qubits=2" in repr(CliffordTableau.identity(2))

    def test_conjugate_register_mismatch(self):
        with pytest.raises(ValueError):
            CliffordTableau.identity(2).conjugate(PauliString("XXX"))


class TestCliffordClassification:
    def test_named_cliffords(self):
        assert is_clifford_gate(cnot(0, 1))
        assert is_clifford_gate(hadamard(0))
        assert not is_clifford_gate(Gate("T", (0,)))
        assert not is_clifford_gate(Gate("TDG", (0,)))

    def test_clifford_angle_rotations(self):
        assert is_clifford_gate(rz(0, math.pi / 2))
        assert is_clifford_gate(rx(0, -math.pi))
        assert is_clifford_gate(ry(0, 2 * math.pi))
        assert not is_clifford_gate(rz(0, 0.3))

    def test_clifford_circuit_classification(self):
        circuit = Circuit(2, [hadamard(0), cnot(0, 1), rz(1, math.pi)])
        assert is_clifford_circuit(circuit)
        circuit.append(rz(0, 0.25))
        assert not is_clifford_circuit(circuit)

    def test_elementary_decomposition_raises_on_t(self):
        with pytest.raises(NotCliffordError):
            list(elementary_gates(Gate("T", (0,))))

    def test_elementary_decomposition_raises_on_generic_angle(self):
        with pytest.raises(NotCliffordError):
            list(elementary_gates(rz(0, 0.7)))

    def test_from_circuit_raises_on_non_clifford(self):
        with pytest.raises(NotCliffordError):
            CliffordTableau.from_circuit(Circuit(1, [rz(0, 0.7)]))


class TestRotationDecompositions:
    """Clifford-angle rotations must act like their named decompositions."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["RZ", "RX", "RY"])
    def test_rotation_matches_dense(self, name, k):
        angle = k * math.pi / 2
        rotated = Circuit(2, [Gate(name, (1,), angle)])
        tableau = CliffordTableau.from_circuit(rotated)
        unitary = rotated.to_unitary()
        for row, (sign, image) in enumerate(tableau.generator_images()):
            base = _generator_string(2, row)
            expected = unitary @ base.to_dense() @ unitary.conj().T
            assert np.allclose(expected, sign * image.to_dense())

    def test_angle_beyond_two_pi(self):
        # RZ(5π) ≡ RZ(π) up to global phase.
        a = CliffordTableau.from_circuit(Circuit(1, [rz(0, 5 * math.pi)]))
        b = CliffordTableau.from_circuit(Circuit(1, [rz(0, math.pi)]))
        assert a == b


def _generator_string(n, row):
    qubit = row % n
    label = ["I"] * n
    label[qubit] = "X" if row < n else "Z"
    return PauliString("".join(label))


class TestComposition:
    def test_from_circuit_matches_sequential_apply(self):
        circuit = Circuit(3, [hadamard(0), cnot(0, 1), s_gate(1), cnot(1, 2)])
        sequential = CliffordTableau.identity(3)
        for gate in reversed(list(circuit)):
            sequential.append_gate_right(gate)
        assert CliffordTableau.from_circuit(circuit) == sequential

    def test_append_gate_right_composes_before(self):
        # Building b then right-appending reversed(a) must equal from_circuit(a+b).
        a = Circuit(3, [hadamard(1), cnot(1, 2), s_gate(0), Gate("CZ", (0, 2))])
        b = Circuit(3, [cnot(2, 0), Gate("SQRTX", (1,)), Gate("SWAP", (0, 1))])
        composed = CliffordTableau.from_circuit(a.compose(b))
        tableau = CliffordTableau.from_circuit(b)
        for gate in reversed(list(a)):
            tableau.append_gate_right(gate)
        assert tableau == composed

    def test_append_right_rotation_decomposition(self):
        a = Circuit(2, [rz(0, math.pi / 2), ry(1, -math.pi / 2)])
        b = Circuit(2, [cnot(0, 1)])
        composed = CliffordTableau.from_circuit(a.compose(b))
        tableau = CliffordTableau.from_circuit(b)
        for gate in reversed(list(a)):
            tableau.append_gate_right(gate)
        assert tableau == composed


class TestMultiWordRegisters:
    """Registers past 64 qubits carry masks wider than one machine word."""

    def test_cnot_network_matches_linear_encoding_matrix_form(self):
        n = 80
        cnots = [(3, 77), (77, 12), (64, 63), (0, 79), (63, 64), (12, 3)]
        circuit = Circuit(n, [cnot(c, t) for c, t in cnots])
        tableau = CliffordTableau.from_circuit(circuit)
        encoding = LinearEncodingTransform(cnot_network_matrix(n, cnots))
        rng = np.random.default_rng(11)
        signs = set()
        for _ in range(12):
            x = int.from_bytes(rng.bytes(10), "little") % (1 << n)
            z = int.from_bytes(rng.bytes(10), "little") % (1 << n)
            string = PauliString.from_bitmasks(n, x, z)
            sign, image = tableau.conjugate(string)
            signs.add(sign)
            expected = DictLinearEncoding(encoding).conjugate(QubitOperator.from_pauli_string(string))
            assert expected.terms == {image: sign}
        assert signs == {1, -1}

    def test_identity_across_word_boundary(self):
        tableau = CliffordTableau.identity(70)
        sign, image = tableau.conjugate(PauliString.from_bitmasks(70, 1 << 65, 1 << 3))
        assert sign == 1
        assert image == PauliString.from_bitmasks(70, 1 << 65, 1 << 3)

    def test_swap_across_word_boundary(self):
        n = 66
        circuit = Circuit(n, [Gate("SWAP", (2, 65))])
        tableau = CliffordTableau.from_circuit(circuit)
        sign, image = tableau.conjugate(PauliString.from_dict(n, {2: "Y"}))
        assert sign == 1
        assert image == PauliString.from_dict(n, {65: "Y"})


class TestTableauEquivalence:
    def test_equal_circuits(self):
        a = Circuit(2, [hadamard(0), cnot(0, 1)])
        assert _tableau_verdict(a, a.copy())

    def test_global_phase_invisible(self):
        # RZ(π) = -i Z: the tableau cannot see the -i.
        a = Circuit(1, [rz(0, math.pi)])
        b = Circuit(1, [Gate("Z", (0,))])
        assert _tableau_verdict(a, b)

    def test_detects_sign_difference(self):
        a = Circuit(1, [Gate("SQRTX", (0,))])
        b = Circuit(1, [Gate("SQRTXDG", (0,))])
        assert not _tableau_verdict(a, b)

    def test_register_mismatch(self):
        assert not _tableau_verdict(Circuit(1, [hadamard(0)]), Circuit(2, [hadamard(0)]))

    def test_random_clifford_differential_vs_dense(self):
        rng = np.random.default_rng(5)
        names_1q = ["H", "S", "SDG", "X", "Y", "Z", "SQRTX", "SQRTXDG"]
        for trial in range(25):
            n = int(rng.integers(2, 5))
            circuits = []
            for offset in range(2):
                circuit = Circuit(n)
                for _ in range(12):
                    if rng.random() < 0.4:
                        a, b = rng.choice(n, size=2, replace=False)
                        circuit.append(
                            Gate(str(rng.choice(["CNOT", "CZ", "SWAP"])), (int(a), int(b)))
                        )
                    else:
                        circuit.append(
                            Gate(str(rng.choice(names_1q)), (int(rng.integers(n)),))
                        )
                circuits.append(circuit)
            a, b = circuits
            assert _tableau_verdict(a, b) == a.equals_up_to_global_phase(b)
            assert _tableau_verdict(a, a.copy())
