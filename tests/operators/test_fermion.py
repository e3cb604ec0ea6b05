"""Unit tests for the fermionic operator algebra."""

import pytest

from operator_oracle import FermionOperator


class TestConstruction:
    def test_zero_operator_has_no_terms(self):
        assert FermionOperator.zero().terms == {}
        assert FermionOperator.zero().is_zero

    def test_identity_operator(self):
        op = FermionOperator.identity(2.5)
        assert op.terms == {(): 2.5 + 0j}
        assert op.constant == 2.5

    def test_creation_and_annihilation(self):
        cr = FermionOperator.creation(3)
        an = FermionOperator.annihilation(1)
        assert cr.terms == {((3, True),): 1.0 + 0j}
        assert an.terms == {((1, False),): 1.0 + 0j}

    def test_zero_coefficient_term_is_dropped(self):
        op = FermionOperator(((0, True),), 0.0)
        assert op.is_zero

    def test_invalid_orbital_raises(self):
        with pytest.raises(ValueError):
            FermionOperator(((-1, True),))

    def test_invalid_term_shape_raises(self):
        with pytest.raises(TypeError):
            FermionOperator((("bad",),))

    def test_double_excitation_constructor(self):
        op = FermionOperator.double_excitation(2, 3, 5, 6, 0.5)
        expected = ((2, True), (3, True), (5, False), (6, False))
        assert op.terms == {expected: 0.5 + 0j}

    def test_number_operator(self):
        op = FermionOperator.number(4)
        assert op.terms == {((4, True), (4, False)): 1.0 + 0j}


class TestAlgebra:
    def test_addition_merges_identical_terms(self):
        op = FermionOperator.creation(0) + FermionOperator.creation(0)
        assert op.terms == {((0, True),): 2.0 + 0j}

    def test_addition_of_scalar(self):
        op = FermionOperator.creation(0) + 3.0
        assert op.constant == 3.0

    def test_subtraction_cancels(self):
        op = FermionOperator.creation(0) - FermionOperator.creation(0)
        assert op.is_zero

    def test_scalar_multiplication(self):
        op = 2.0 * FermionOperator.creation(1)
        assert op.terms == {((1, True),): 2.0 + 0j}

    def test_multiplication_concatenates_terms(self):
        product = FermionOperator.creation(0) * FermionOperator.annihilation(1)
        assert product.terms == {((0, True), (1, False)): 1.0 + 0j}

    def test_division_by_scalar(self):
        op = FermionOperator.creation(1, 4.0) / 2.0
        assert op.terms == {((1, True),): 2.0 + 0j}

    def test_power(self):
        op = FermionOperator.creation(0) ** 2
        # a†a† on the same orbital is nilpotent: normal ordering kills it.
        assert op.normal_ordered().is_zero

    def test_power_zero_is_identity(self):
        op = FermionOperator.creation(0) ** 0
        assert op == FermionOperator.identity()

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            FermionOperator.creation(0) ** -1

    def test_many_body_order(self):
        op = FermionOperator.double_excitation(0, 1, 2, 3) + FermionOperator.creation(5)
        assert op.many_body_order() == 4

    def test_max_orbital_and_orbitals(self):
        op = FermionOperator.double_excitation(0, 7, 2, 3)
        assert op.max_orbital() == 7
        assert op.orbitals() == (0, 2, 3, 7)


class TestHermitianConjugation:
    def test_conjugate_of_creation_is_annihilation(self):
        assert FermionOperator.creation(2).hermitian_conjugate() == FermionOperator.annihilation(2)

    def test_conjugate_reverses_order(self):
        op = FermionOperator.creation(0) * FermionOperator.annihilation(1)
        expected = FermionOperator.creation(1) * FermionOperator.annihilation(0)
        assert op.hermitian_conjugate() == expected

    def test_conjugate_conjugates_coefficients(self):
        op = FermionOperator.creation(0, 1.0 + 2.0j)
        assert op.hermitian_conjugate().terms == {((0, False),): 1.0 - 2.0j}

    def test_double_conjugation_is_identity(self):
        op = FermionOperator.double_excitation(0, 1, 2, 3, 0.3 + 0.1j)
        assert op.hermitian_conjugate().hermitian_conjugate() == op

    def test_number_operator_is_hermitian(self):
        assert FermionOperator.number(3).is_hermitian()

    def test_anti_hermitian_part(self):
        op = FermionOperator.double_excitation(0, 1, 2, 3, 0.7)
        generator = op.anti_hermitian_part()
        assert (generator + generator.hermitian_conjugate()).normal_ordered().is_zero


class TestNormalOrdering:
    def test_anticommutation_same_orbital(self):
        # a_0 a†_0 = 1 - a†_0 a_0
        op = FermionOperator.annihilation(0) * FermionOperator.creation(0)
        expected = FermionOperator.identity() - FermionOperator.number(0)
        assert op.normal_ordered() == expected

    def test_anticommutation_different_orbitals(self):
        # a_0 a†_1 = -a†_1 a_0
        op = FermionOperator.annihilation(0) * FermionOperator.creation(1)
        expected = FermionOperator(((1, True), (0, False)), -1.0)
        assert op.normal_ordered() == expected

    def test_pauli_exclusion_creation(self):
        op = FermionOperator.creation(0) * FermionOperator.creation(0)
        assert op.normal_ordered().is_zero

    def test_pauli_exclusion_annihilation(self):
        op = FermionOperator.annihilation(2) * FermionOperator.annihilation(2)
        assert op.normal_ordered().is_zero

    def test_creation_block_sorted_descending(self):
        op = FermionOperator.creation(0) * FermionOperator.creation(1)
        ordered = op.normal_ordered()
        assert ordered.terms == {((1, True), (0, True)): -1.0 + 0j}

    def test_number_operator_fixed_point(self):
        op = FermionOperator.number(3)
        assert op.normal_ordered() == op

    def test_normal_ordering_is_idempotent(self):
        op = (
            FermionOperator.annihilation(0)
            * FermionOperator.creation(1)
            * FermionOperator.annihilation(1)
            * FermionOperator.creation(0)
        )
        once = op.normal_ordered()
        twice = once.normal_ordered()
        assert once == twice

    def test_normal_ordering_preserves_operator_identity(self):
        # {a_1, a†_1} = 1 inside a longer product.
        op = FermionOperator.creation(0) * (
            FermionOperator.annihilation(1) * FermionOperator.creation(1)
            + FermionOperator.creation(1) * FermionOperator.annihilation(1)
        )
        assert op.normal_ordered() == FermionOperator.creation(0)


class TestEqualityAndDisplay:
    def test_equality_up_to_normal_ordering(self):
        a = FermionOperator.annihilation(0) * FermionOperator.creation(1)
        b = FermionOperator(((1, True), (0, False)), -1.0)
        assert a == b

    def test_equality_with_scalar(self):
        assert FermionOperator.identity(2.0) == 2.0

    def test_repr_contains_terms(self):
        op = FermionOperator.creation(2, 0.5)
        assert "a^2" in repr(op)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(FermionOperator.creation(0))

    def test_compress_drops_small_terms(self):
        op = FermionOperator.creation(0, 1e-15) + FermionOperator.creation(1, 1.0)
        compressed = op.compress(1e-12)
        assert list(compressed.terms) == [((1, True),)]
