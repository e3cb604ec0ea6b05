"""Golden cross-check of Clifford conjugation rules against dense matrices.

The tableau engine rests on a table of per-gate sign/update rules.  A sign
error there silently corrupts every verdict of the verifier, and the
tableau is also the reference the linear-encoding sign rule is checked
against, so this suite pins the rules exhaustively: every supported
one-qubit Clifford on *all* 16 two-qubit Pauli strings and every two-qubit
Clifford on the same 16 strings, signs included, against direct ``U P U†``
matrix conjugation — plus hypothesis sweeps over random packed Paulis and
random Clifford words.  The two-qubit cases are repeated on a qubit pair
that straddles bit 64 of the packed masks, against the relabelled images.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operator_oracle import DictLinearEncoding, QubitOperator
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.operators import PauliString
from repro.transforms import LinearEncodingTransform, cnot_network_matrix
from repro.verify import CliffordTableau, conjugate_pauli_by_clifford_gate

ONE_QUBIT_CLIFFORDS = ["I", "X", "Y", "Z", "H", "S", "SDG", "SQRTX", "SQRTXDG"]
TWO_QUBIT_CLIFFORDS = ["CNOT", "CZ", "SWAP"]
CLIFFORD_ANGLES = [math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 2]
ALL_TWO_QUBIT_PAULIS = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
#: A 71-qubit register and qubit pairs on either side of bit 64, both orders.
WIDE_QUBITS = 71
WIDE_PAIRS = [(3, 70), (70, 3)]


def embed_gate(gate, n):
    """Dense unitary of a single gate on an n-qubit register."""
    return Circuit(n, [gate]).to_unitary()


def assert_golden(gate, label):
    string = PauliString(label)
    sign, image = conjugate_pauli_by_clifford_gate(string, gate)
    unitary = embed_gate(gate, string.n_qubits)
    expected = unitary @ string.to_dense() @ unitary.conj().T
    assert sign in (1, -1)
    assert np.allclose(expected, sign * image.to_dense(), atol=1e-12), (
        f"{gate} conjugating {label}: got {sign:+d}·{image.to_label()}"
    )


def dense_image(gate, label):
    """``(sign, label')`` with ``U P U† = sign · P'``, by dense trace overlaps."""
    unitary = embed_gate(gate, len(label))
    expected = unitary @ PauliString(label).to_dense() @ unitary.conj().T
    for candidate in ALL_TWO_QUBIT_PAULIS:
        overlap = np.trace(PauliString(candidate).to_dense() @ expected).real / 4
        if abs(abs(overlap) - 1) < 1e-12:
            return int(round(overlap)), candidate
    raise AssertionError(f"{gate} maps {label} outside the Pauli group")


def widen(label, qubits):
    """A two-qubit label with its qubits 0, 1 placed on ``qubits`` of the wide register."""
    return PauliString.from_dict(
        WIDE_QUBITS, {q: c for q, c in zip(qubits, label) if c != "I"}
    )


class TestExhaustiveGolden:
    @pytest.mark.parametrize("label", ALL_TWO_QUBIT_PAULIS)
    @pytest.mark.parametrize("name", ONE_QUBIT_CLIFFORDS)
    @pytest.mark.parametrize("qubit", [0, 1])
    def test_one_qubit_cliffords(self, name, qubit, label):
        assert_golden(Gate(name, (qubit,)), label)

    @pytest.mark.parametrize("label", ALL_TWO_QUBIT_PAULIS)
    @pytest.mark.parametrize("name", TWO_QUBIT_CLIFFORDS)
    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
    def test_two_qubit_cliffords(self, name, qubits, label):
        assert_golden(Gate(name, qubits), label)

    @pytest.mark.parametrize("label", ALL_TWO_QUBIT_PAULIS)
    @pytest.mark.parametrize("name", TWO_QUBIT_CLIFFORDS)
    @pytest.mark.parametrize("qubits", WIDE_PAIRS)
    def test_two_qubit_cliffords_across_word_boundary(self, name, qubits, label):
        sign, image = dense_image(Gate(name, (0, 1)), label)
        got = conjugate_pauli_by_clifford_gate(widen(label, qubits), Gate(name, qubits))
        assert got == (sign, widen(image, qubits))

    @pytest.mark.parametrize("name", TWO_QUBIT_CLIFFORDS)
    @pytest.mark.parametrize("qubits", WIDE_PAIRS)
    def test_two_qubit_generator_images_across_word_boundary(self, name, qubits):
        """Rows of the gate's qubits hold the relabelled golden images; others stay."""
        n = WIDE_QUBITS
        tableau = CliffordTableau.from_circuit(Circuit(n, [Gate(name, qubits)]))
        images = tableau.generator_images()
        for offset, pauli in ((0, "X"), (n, "Z")):
            for qubit in range(n):
                generator = PauliString.from_dict(n, {qubit: pauli})
                expected = (1, generator)
                if qubit in qubits:
                    local = "".join(pauli if q == qubit else "I" for q in qubits)
                    sign, image = dense_image(Gate(name, (0, 1)), local)
                    expected = (sign, widen(image, qubits))
                assert images[offset + qubit] == expected, (name, qubits, pauli, qubit)

    @pytest.mark.parametrize("label", ALL_TWO_QUBIT_PAULIS)
    @pytest.mark.parametrize("name", ["RZ", "RX", "RY"])
    @pytest.mark.parametrize("angle", CLIFFORD_ANGLES)
    def test_clifford_angle_rotations(self, name, angle, label):
        assert_golden(Gate(name, (0,), angle), label)

    @pytest.mark.parametrize("label", ALL_TWO_QUBIT_PAULIS)
    def test_cnot_agrees_with_linear_encoding_matrix_form(self, label):
        """The tableau CNOT and the Γ = CNOT(0, 1) encoding agree, sign included."""
        string = PauliString(label)
        sign, image = conjugate_pauli_by_clifford_gate(string, Gate("CNOT", (0, 1)))
        encoding = LinearEncodingTransform(cnot_network_matrix(2, [(0, 1)]))
        expected = DictLinearEncoding(encoding).conjugate(QubitOperator.from_pauli_string(string))
        assert expected.terms == {image: sign}


@st.composite
def packed_pauli(draw, max_qubits=6):
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    x = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    z = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return PauliString.from_bitmasks(n, x, z)


@st.composite
def clifford_word(draw, n):
    gates = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if n >= 2 and draw(st.booleans()):
            name = draw(st.sampled_from(TWO_QUBIT_CLIFFORDS))
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda q: q != a))
            gates.append(Gate(name, (a, b)))
        else:
            name = draw(st.sampled_from(ONE_QUBIT_CLIFFORDS))
            gates.append(Gate(name, (draw(st.integers(min_value=0, max_value=n - 1)),)))
    return Circuit(n, gates)


class TestHypothesisGolden:
    @given(packed_pauli(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_pauli_through_random_gate(self, string, data):
        n = string.n_qubits
        if data.draw(st.booleans()):
            gate = Gate(
                data.draw(st.sampled_from(ONE_QUBIT_CLIFFORDS)),
                (data.draw(st.integers(min_value=0, max_value=n - 1)),),
            )
        else:
            a = data.draw(st.integers(min_value=0, max_value=n - 1))
            b = data.draw(
                st.integers(min_value=0, max_value=n - 1).filter(lambda q: q != a)
            )
            gate = Gate(data.draw(st.sampled_from(TWO_QUBIT_CLIFFORDS)), (a, b))
        sign, image = conjugate_pauli_by_clifford_gate(string, gate)
        unitary = embed_gate(gate, n)
        expected = unitary @ string.to_dense() @ unitary.conj().T
        assert np.allclose(expected, sign * image.to_dense(), atol=1e-12)

    @given(packed_pauli(max_qubits=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_pauli_through_random_word(self, string, data):
        circuit = data.draw(clifford_word(string.n_qubits))
        tableau = CliffordTableau.from_circuit(circuit)
        sign, image = tableau.conjugate(string)
        unitary = circuit.to_unitary()
        expected = unitary @ string.to_dense() @ unitary.conj().T
        assert np.allclose(expected, sign * image.to_dense(), atol=1e-12)
