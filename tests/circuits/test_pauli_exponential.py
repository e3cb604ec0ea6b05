"""Unit tests for Pauli-exponential circuit synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.circuits import (
    Circuit,
    exponential_sequence_circuit,
    pauli_exponential_circuit,
    pauli_exponential_cnot_count,
)
from repro.hardware import (
    Topology,
    routed_exponential_sequence_circuit,
    routed_pauli_exponential_circuit,
)
from repro.operators import PauliString


def exact_exponential(string, angle):
    return expm(-0.5j * angle * string.to_dense())


class TestSingleExponential:
    @pytest.mark.parametrize("label", ["Z", "X", "Y"])
    def test_single_qubit_rotations(self, label):
        angle = 0.731
        circuit = pauli_exponential_circuit(PauliString(label), angle)
        assert circuit.cnot_count == 0
        assert np.allclose(circuit.to_unitary(), exact_exponential(PauliString(label), angle))

    @pytest.mark.parametrize(
        "label", ["ZZ", "XX", "YY", "XY", "ZX", "XYZ", "YZX", "XXYY", "IZXI"]
    )
    def test_multi_qubit_exponentials(self, label):
        angle = -1.234
        string = PauliString(label)
        circuit = pauli_exponential_circuit(string, angle)
        assert np.allclose(circuit.to_unitary(), exact_exponential(string, angle))
        assert circuit.cnot_count == pauli_exponential_cnot_count(string)

    def test_identity_string_gives_empty_circuit(self):
        circuit = pauli_exponential_circuit(PauliString("II"), 0.4)
        assert len(circuit) == 0

    def test_cnot_count_formula(self):
        assert pauli_exponential_cnot_count(PauliString("XYZI")) == 4
        assert pauli_exponential_cnot_count(PauliString("IZII")) == 0
        assert pauli_exponential_cnot_count(PauliString("IIII")) == 0

    @given(
        st.text(alphabet="IXYZ", min_size=2, max_size=4).filter(
            lambda s: any(c != "I" for c in s)
        ),
        st.floats(min_value=-np.pi, max_value=np.pi),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_target_choice_is_correct(self, label, angle, data):
        string = PauliString(label)
        target = data.draw(st.sampled_from(string.support))
        circuit = pauli_exponential_circuit(string, angle, target=target)
        assert np.allclose(
            circuit.to_unitary(), exact_exponential(string, angle), atol=1e-8
        )


class TestTargetAndControlOrder:
    def test_default_target_is_last_support_qubit(self):
        circuit = pauli_exponential_circuit(PauliString("XIZ"), 0.3)
        rz_gates = [g for g in circuit if g.name == "RZ"]
        assert rz_gates[0].qubits == (2,)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            pauli_exponential_circuit(PauliString("XIZ"), 0.3, target=1)

    def test_control_order_respected(self):
        circuit = pauli_exponential_circuit(
            PauliString("XYZ"), 0.3, target=2, control_order=[1, 0]
        )
        cnots = [g for g in circuit if g.is_cnot]
        assert cnots[0].control == 1 and cnots[1].control == 0

    def test_invalid_control_order_rejected(self):
        with pytest.raises(ValueError):
            pauli_exponential_circuit(
                PauliString("XYZ"), 0.3, target=2, control_order=[0, 2]
            )

    def test_control_order_preserves_unitary(self):
        string = PauliString("XYZX")
        angle = 0.9
        default = pauli_exponential_circuit(string, angle, target=0)
        permuted = pauli_exponential_circuit(
            string, angle, target=0, control_order=[3, 1, 2]
        )
        assert np.allclose(default.to_unitary(), permuted.to_unitary())


class TestSequences:
    def test_sequence_circuit_matches_product(self):
        terms = [
            (PauliString("XXYI"), 0.4, 1),
            (PauliString("IZZX"), -0.7, 2),
            (PauliString("YIIZ"), 0.2, 0),
        ]
        circuit = exponential_sequence_circuit(terms)
        expected = np.eye(16, dtype=complex)
        for string, angle, _ in terms:
            expected = exact_exponential(string, angle) @ expected
        assert np.allclose(circuit.to_unitary(), expected)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            exponential_sequence_circuit([])

    def test_mismatched_register_rejected(self):
        with pytest.raises(ValueError):
            exponential_sequence_circuit(
                [(PauliString("XX"), 0.1, None), (PauliString("XXX"), 0.1, None)]
            )


LINE_8 = Topology.line(8)

#: (sequence builder, single-term builder) pairs sharing one signature.
SEQUENCE_BUILDERS = {
    "all-to-all": (exponential_sequence_circuit, pauli_exponential_circuit),
    "line": (
        lambda terms: routed_exponential_sequence_circuit(terms, LINE_8),
        lambda string, angle, target: routed_pauli_exponential_circuit(
            string, angle, LINE_8, target
        ),
    ),
}


@pytest.mark.parametrize("builder", sorted(SEQUENCE_BUILDERS))
def test_sequence_synthesis_appends_each_gate_once(builder, monkeypatch):
    """A sequence is built in one pass: one ``Circuit.append`` per gate."""
    build_sequence, build_term = SEQUENCE_BUILDERS[builder]
    rng = np.random.default_rng(7)
    terms = []
    while len(terms) < 200:
        label = "".join(rng.choice(list("IXYZ"), size=8))
        string = PauliString(label)
        if string.is_identity:
            continue
        target = int(rng.choice(string.support))
        terms.append((string, float(rng.uniform(-1, 1)), target))

    calls = []
    append = Circuit.append

    def counting_append(self, gate):
        calls.append(gate)
        return append(self, gate)

    monkeypatch.setattr(Circuit, "append", counting_append)
    circuit = build_sequence(terms)
    n_calls = len(calls)
    monkeypatch.undo()

    assert n_calls == len(circuit)
    expected = tuple(
        gate for string, angle, target in terms
        for gate in build_term(string, angle, target).gates
    )
    assert circuit.gates == expected
