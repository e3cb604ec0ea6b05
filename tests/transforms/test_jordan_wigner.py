"""Unit tests for the Jordan-Wigner transform.

``repro.transforms.JordanWignerTransform`` is the linear encoding Γ = I; its
dict-algebra images (ladder operators multiplied out) are the test tree's
oracle, ``operator_oracle.DictJordanWigner``.
"""

import numpy as np
import pytest

import repro.transforms.linear_encoding as linear_encoding
from operator_oracle import DictJordanWigner, FermionOperator, QubitOperator, jordan_wigner
from repro.operators import PauliString
from repro.transforms import JordanWignerTransform, LinearEncodingTransform, identity_matrix


class TestLinearEncoding:
    def test_is_the_identity_linear_encoding(self):
        transform = JordanWignerTransform(5)
        assert isinstance(transform, LinearEncodingTransform)
        assert transform.is_identity_encoding
        np.testing.assert_array_equal(transform.gamma, identity_matrix(5))
        assert transform.n_modes == transform.n_qubits == 5

    def test_binds_gamma_without_inverting(self, monkeypatch):
        def no_inverse(gamma):
            raise AssertionError("inverted the identity")

        monkeypatch.setattr(linear_encoding, "gf2_inverse", no_inverse)
        assert JordanWignerTransform(4).is_identity_encoding

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError, match="n_modes must be positive"):
            JordanWignerTransform(0)


class TestLadderOperatorImages:
    def test_annihilation_on_first_mode(self):
        op = DictJordanWigner(2).annihilation_operator(0)
        assert op.terms == {PauliString("XI"): 0.5, PauliString("YI"): 0.5j}

    def test_annihilation_has_z_chain(self):
        op = DictJordanWigner(3).annihilation_operator(2)
        assert op.terms == {PauliString("ZZX"): 0.5, PauliString("ZZY"): 0.5j}

    def test_creation_is_conjugate(self):
        transform = DictJordanWigner(2)
        cr = transform.creation_operator(1)
        an = transform.annihilation_operator(1)
        assert cr == an.hermitian_conjugate()

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            DictJordanWigner(2).annihilation_operator(2)

    def test_transform_rejects_out_of_range_operator(self):
        with pytest.raises(ValueError):
            DictJordanWigner(2).transform(FermionOperator.creation(5))


class TestAlgebraPreservation:
    def test_number_operator_image(self):
        # a†_0 a_0 -> (I - Z_0) / 2.
        image = jordan_wigner(FermionOperator.number(0), n_modes=2)
        expected = QubitOperator.identity(2, 0.5) + QubitOperator.from_label("ZI", -0.5)
        assert image == expected

    def test_canonical_anticommutation(self):
        transform = DictJordanWigner(3)
        for i in range(3):
            for j in range(3):
                a_i = transform.annihilation_operator(i)
                adag_j = transform.creation_operator(j)
                anticommutator = a_i * adag_j + adag_j * a_i
                expected = QubitOperator.identity(3, 1.0 if i == j else 0.0)
                assert anticommutator == expected

    def test_annihilation_anticommute(self):
        transform = DictJordanWigner(3)
        for i in range(3):
            for j in range(3):
                a_i = transform.annihilation_operator(i)
                a_j = transform.annihilation_operator(j)
                assert (a_i * a_j + a_j * a_i).is_zero

    def test_hermitian_operator_maps_to_hermitian(self):
        op = FermionOperator.double_excitation(0, 1, 2, 3, 0.5)
        hermitian = op + op.hermitian_conjugate()
        assert jordan_wigner(hermitian, n_modes=4).is_hermitian()

    def test_anti_hermitian_generator_maps_to_anti_hermitian(self):
        op = FermionOperator.double_excitation(0, 1, 2, 3, 0.5)
        generator = op.anti_hermitian_part()
        assert jordan_wigner(generator, n_modes=4).is_anti_hermitian()

    def test_double_excitation_has_eight_strings(self):
        op = FermionOperator.double_excitation(0, 1, 2, 3, 1.0).anti_hermitian_part()
        image = jordan_wigner(op, n_modes=4)
        assert len(image) == 8
        assert all(s.weight == 4 for s in image.terms)


class TestModuleFunction:
    def test_infers_mode_count(self):
        image = jordan_wigner(FermionOperator.creation(2))
        assert image.n_qubits == 3

    def test_constant_operator_requires_mode_count(self):
        with pytest.raises(ValueError):
            jordan_wigner(FermionOperator.identity(2.0))

    def test_constant_with_explicit_modes(self):
        image = jordan_wigner(FermionOperator.identity(2.0), n_modes=2)
        assert image == QubitOperator.identity(2, 2.0)

    def test_matrix_of_hopping_term(self):
        # a†_0 a_1 + a†_1 a_0 on two modes: matrix with known spectrum ±1, 0, 0.
        op = FermionOperator.single_excitation(0, 1) + FermionOperator.single_excitation(1, 0)
        matrix = jordan_wigner(op, n_modes=2).to_dense()
        eigenvalues = np.sort(np.linalg.eigvalsh(matrix))
        assert np.allclose(eigenvalues, [-1, 0, 0, 1])
