"""Unit tests for QubitOperator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operator_oracle import QubitOperator
from repro.operators import PauliString


def random_operator(draw, n_qubits=3, max_terms=4):
    labels = draw(
        st.lists(
            st.text(alphabet="IXYZ", min_size=n_qubits, max_size=n_qubits),
            min_size=1,
            max_size=max_terms,
        )
    )
    coeffs = draw(
        st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=len(labels),
            max_size=len(labels),
        )
    )
    op = QubitOperator.zero(n_qubits)
    for label, coeff in zip(labels, coeffs):
        op += QubitOperator.from_label(label, coeff)
    return op


operators = st.composite(random_operator)


class TestConstruction:
    def test_zero(self):
        assert QubitOperator.zero(3).is_zero

    def test_identity(self):
        op = QubitOperator.identity(2, 1.5)
        assert op.constant == 1.5

    def test_from_label(self):
        op = QubitOperator.from_label("XZ", 2.0)
        assert op.terms == {PauliString("XZ"): 2.0 + 0j}
        assert op.n_qubits == 2

    def test_mismatched_string_raises(self):
        with pytest.raises(ValueError):
            QubitOperator(3, {PauliString("XX"): 1.0})

    def test_non_pauli_key_raises(self):
        with pytest.raises(TypeError):
            QubitOperator(2, {"XX": 1.0})

    def test_negative_qubits_raises(self):
        with pytest.raises(ValueError):
            QubitOperator(-1)


class TestAlgebra:
    def test_addition_merges(self):
        op = QubitOperator.from_label("XY") + QubitOperator.from_label("XY", 2.0)
        assert op.terms == {PauliString("XY"): 3.0 + 0j}

    def test_addition_cancels_to_zero(self):
        op = QubitOperator.from_label("ZZ") - QubitOperator.from_label("ZZ")
        assert op.is_zero

    def test_scalar_addition(self):
        op = QubitOperator.from_label("XX") + 2.0
        assert op.constant == 2.0

    def test_mismatched_addition_raises(self):
        with pytest.raises(ValueError):
            QubitOperator.zero(2) + QubitOperator.zero(3)

    def test_scalar_multiplication(self):
        op = 3.0 * QubitOperator.from_label("YZ")
        assert op.terms[PauliString("YZ")] == 3.0

    def test_operator_multiplication_tracks_phase(self):
        product = QubitOperator.from_label("X") * QubitOperator.from_label("Y")
        assert product.terms == {PauliString("Z"): 1j}

    def test_division(self):
        op = QubitOperator.from_label("XX", 4.0) / 2.0
        assert op.terms[PauliString("XX")] == 2.0

    def test_commutator_of_commuting_is_zero(self):
        a = QubitOperator.from_label("XX")
        b = QubitOperator.from_label("ZZ")
        assert a.commutator(b).is_zero

    def test_commutator_xy(self):
        a = QubitOperator.from_label("X")
        b = QubitOperator.from_label("Y")
        assert a.commutator(b) == QubitOperator.from_label("Z", 2j)

    @given(operators(), operators())
    @settings(max_examples=30, deadline=None)
    def test_product_matches_matrix_product(self, a, b):
        lhs = (a * b).to_dense()
        rhs = a.to_dense() @ b.to_dense()
        assert np.allclose(lhs, rhs, atol=1e-8)

    @given(operators(), operators())
    @settings(max_examples=30, deadline=None)
    def test_addition_matches_matrix_sum(self, a, b):
        assert np.allclose((a + b).to_dense(), a.to_dense() + b.to_dense(), atol=1e-8)


class TestHermiticity:
    def test_real_coefficients_hermitian(self):
        op = QubitOperator.from_label("XY", 0.5) + QubitOperator.from_label("ZZ", -1.0)
        assert op.is_hermitian()
        assert not op.is_anti_hermitian()

    def test_imaginary_coefficients_anti_hermitian(self):
        op = QubitOperator.from_label("XY", 0.5j)
        assert op.is_anti_hermitian()
        assert not op.is_hermitian()

    def test_hermitian_conjugate(self):
        op = QubitOperator.from_label("XY", 1.0 + 2.0j)
        assert op.hermitian_conjugate().terms[PauliString("XY")] == 1.0 - 2.0j


class TestIntrospection:
    def test_pauli_strings_sorted(self):
        op = QubitOperator.from_label("ZZ") + QubitOperator.from_label("IX")
        assert op.pauli_strings() == (PauliString("IX"), PauliString("ZZ"))

    def test_max_weight(self):
        op = QubitOperator.from_label("XIII") + QubitOperator.from_label("XYZI")
        assert op.max_weight() == 3

    def test_total_cnot_upper_bound(self):
        op = QubitOperator.from_label("XYZI") + QubitOperator.from_label("XIII")
        # Weight-3 string costs 4 CNOTs; weight-1 string costs none.
        assert op.total_cnot_upper_bound() == 4

    def test_compress(self):
        op = QubitOperator.from_label("XX", 1e-15) + QubitOperator.from_label("YY", 1.0)
        assert list(op.compress(1e-12).terms) == [PauliString("YY")]

    def test_equality_with_scalar(self):
        assert QubitOperator.identity(2, 3.0) == 3.0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(QubitOperator.zero(2))


class TestMatrixExport:
    def test_identity_matrix(self):
        assert np.allclose(QubitOperator.identity(2).to_dense(), np.eye(4))

    def test_sum_of_paulis(self):
        op = QubitOperator.from_label("ZI", 1.0) + QubitOperator.from_label("IZ", 1.0)
        assert np.allclose(np.diag(op.to_dense()), [2, 0, 0, -2])
