"""Differential oracles for the verifier's fast paths.

* ``_lex_normal_form`` (anticommutation DAG + heap) against the direct
  rescanning definition of the trace-monoid normal form kept below;
* ``CliffordTableau.append_gate_right`` (memoized local generator images)
  against ``CliffordTableau.from_circuit`` of the composed circuit.
"""

import math
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.verify import CliffordTableau, PauliRotation
from repro.verify.pauli_prop import _commutes, _lex_normal_form, _rotation_key
from repro.verify.tableau import CLIFFORD_GATE_NAMES


def reference_lex_normal_form(rotations: List[PauliRotation]) -> List[PauliRotation]:
    """The normal form by its definition, ``O(m³)``.

    Repeatedly emit the smallest-keyed rotation that commutes with everything
    still scheduled before it; strict ``<`` keeps the earliest on equal keys.
    """
    remaining = list(rotations)
    out: List[PauliRotation] = []
    while remaining:
        best_idx = 0
        best_key = _rotation_key(remaining[0])
        for idx in range(1, len(remaining)):
            candidate = remaining[idx]
            if not all(_commutes(remaining[i], candidate) for i in range(idx)):
                continue
            key = _rotation_key(candidate)
            if key < best_key:
                best_key = key
                best_idx = idx
        out.append(remaining.pop(best_idx))
    return out


# Three qubits and four angles, so equal keys and same-axis pairs are common;
# diagonal runs (x = 0) are long stretches of mutually commuting rotations.
_ANGLES = st.sampled_from([0.3, -0.3, 0.7, 1.1])
_ROTATION = st.builds(PauliRotation, st.integers(0, 7), st.integers(0, 7), _ANGLES)
_DIAGONAL = st.builds(PauliRotation, st.just(0), st.integers(1, 7), _ANGLES)
_ROTATION_LISTS = st.lists(
    st.one_of(
        st.lists(_ROTATION, max_size=6),
        st.lists(_DIAGONAL, min_size=3, max_size=12),
        _ROTATION.map(lambda rotation: [rotation, rotation]),
    ),
    max_size=6,
).map(lambda segments: [rotation for segment in segments for rotation in segment])


@settings(max_examples=200, deadline=None)
@given(_ROTATION_LISTS)
def test_lex_normal_form_matches_reference(rotations):
    fast = _lex_normal_form(list(rotations))
    slow = reference_lex_normal_form(list(rotations))
    # The same objects in the same order: ties pick the same original entry.
    assert [id(rotation) for rotation in fast] == [id(rotation) for rotation in slow]


_CLIFFORD_ANGLES = [k * math.pi / 2 for k in range(-4, 5)]
_GATE_NAMES = sorted(CLIFFORD_GATE_NAMES) + ["RX", "RY", "RZ"]


@st.composite
def _clifford_gate(draw, n_qubits, name=None):
    if name is None:
        name = draw(st.sampled_from(_GATE_NAMES))
    if name in ("CNOT", "CZ", "SWAP"):
        qubits = draw(
            st.lists(st.integers(0, n_qubits - 1), min_size=2, max_size=2, unique=True)
        )
        return Gate(name, tuple(qubits))
    qubit = draw(st.integers(0, n_qubits - 1))
    if name in ("RX", "RY", "RZ"):
        return Gate(name, (qubit,), draw(st.sampled_from(_CLIFFORD_ANGLES)))
    return Gate(name, (qubit,))


@pytest.mark.parametrize("name", _GATE_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_append_gate_right_matches_composed_circuit(name, data):
    n_qubits = data.draw(st.sampled_from([2, 3, 5, 70]))
    frame = data.draw(st.lists(_clifford_gate(n_qubits), max_size=12))
    gate = data.draw(_clifford_gate(n_qubits, name))
    tableau = CliffordTableau.from_circuit(Circuit(n_qubits, frame))
    tableau.append_gate_right(gate)
    # U · g as matrices: g runs first in circuit order.
    assert tableau == CliffordTableau.from_circuit(Circuit(n_qubits, [gate, *frame]))
