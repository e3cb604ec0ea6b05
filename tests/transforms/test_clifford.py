"""Pauli conjugation by the CNOT Clifford ``U_Γ``, in matrix form.

:meth:`LinearEncodingTransform.conjugate_planes` maps the planes through Γ
and signs each string by the Y-count rule, without a circuit; the oracle's
``DictLinearEncoding.conjugate`` applies it to operators.  Γ is built here
from CNOT lists with :func:`cnot_network_matrix`, and every image is checked
against dense ``U P U†`` with ``U`` the product of the same gates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from operator_oracle import DictLinearEncoding, QubitOperator
from repro.operators import PauliString
from repro.transforms import LinearEncodingTransform, cnot_network_matrix


def cnot_matrix(n, control, target):
    """Dense CNOT unitary with qubit 0 as the most significant bit."""
    dim = 2 ** n
    matrix = np.zeros((dim, dim))
    for basis in range(dim):
        bits = [(basis >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[control]:
            bits[target] ^= 1
        image = sum(bit << (n - 1 - q) for q, bit in enumerate(bits))
        matrix[image, basis] = 1.0
    return matrix


def network_unitary(n, cnots):
    """Dense ``U = G_k … G_1`` for the gates in circuit order."""
    unitary = np.eye(2 ** n)
    for control, target in cnots:
        unitary = cnot_matrix(n, control, target) @ unitary
    return unitary


def conjugate(string, cnots):
    """``(sign, image)`` of ``U P U†`` by the matrix form, ``U`` from ``cnots``."""
    transform = LinearEncodingTransform(cnot_network_matrix(string.n_qubits, cnots))
    ((image, coefficient),) = DictLinearEncoding(transform).conjugate(
        QubitOperator.from_pauli_string(string)
    ).terms.items()
    assert coefficient in (1, -1)
    return int(coefficient.real), image


@st.composite
def string_and_cnots(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    string = PauliString(draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda gate: gate[0] != gate[1]
    )
    return string, draw(st.lists(pair, max_size=6))


class TestSingleCnotConjugation:
    def test_control_x_spreads(self):
        assert conjugate(PauliString("XI"), [(0, 1)]) == (1, PauliString("XX"))

    def test_target_z_spreads(self):
        assert conjugate(PauliString("IZ"), [(0, 1)]) == (1, PauliString("ZZ"))

    def test_xz_picks_up_sign(self):
        assert conjugate(PauliString("XZ"), [(0, 1)]) == (-1, PauliString("YY"))


class TestNetworkConjugation:
    @given(string_and_cnots())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_conjugation(self, case):
        string, cnots = case
        sign, image = conjugate(string, cnots)
        unitary = network_unitary(string.n_qubits, cnots)
        expected = unitary @ string.to_dense() @ unitary.conj().T
        assert np.allclose(expected, sign * image.to_dense())

    def test_network_application_order(self):
        # U = CNOT(1,2) CNOT(0,1) applied in that circuit order.
        # X0 -> X0 X1 (first gate) -> X0 X1 X2 (second gate).
        assert conjugate(PauliString("XII"), [(0, 1), (1, 2)]) == (1, PauliString("XXX"))

    def test_network_matches_matrix(self):
        cnots = [(0, 2), (2, 1), (1, 0)]
        string = PauliString("YZX")
        sign, image = conjugate(string, cnots)
        unitary = network_unitary(3, cnots)
        expected = unitary @ string.to_dense() @ unitary.conj().T
        assert np.allclose(expected, sign * image.to_dense())

    def test_operator_conjugation_preserves_spectrum(self):
        op = QubitOperator.from_label("XYZ", 0.7) + QubitOperator.from_label("ZZI", -0.3)
        transform = LinearEncodingTransform(cnot_network_matrix(3, [(0, 1), (1, 2), (0, 2)]))
        conjugated = DictLinearEncoding(transform).conjugate(op)
        original = np.sort(np.linalg.eigvalsh(op.to_dense()))
        transformed = np.sort(np.linalg.eigvalsh(conjugated.to_dense()))
        assert np.allclose(original, transformed)
        # One image per input string, in input order, magnitudes exact.
        assert [abs(c) for c in conjugated.terms.values()] == [0.7, 0.3]

    def test_paper_appendix_c_example(self):
        """Appendix C: Γ with CNOTs on the first and last qubit pairs maps XXIIXY to XIIIYZ."""
        string = PauliString("XXIIXY")
        sign, image = conjugate(string, [(0, 1), (4, 5)])
        assert sign == 1
        assert image == PauliString("XIIIYZ")
        assert image.weight < string.weight
