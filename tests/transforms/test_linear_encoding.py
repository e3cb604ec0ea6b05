"""Unit tests for linear-encoding (GL(N,2)) transforms: BK, parity, generalized Γ."""

import numpy as np
import pytest

import repro.transforms.linear_encoding as linear_encoding
from operator_oracle import (
    DictLinearEncoding,
    FermionOperator,
    QubitOperator,
    bravyi_kitaev,
    generalized_transform,
    jordan_wigner,
    parity_transform,
)
from repro.operators import PauliString
from repro.transforms import (
    BravyiKitaevTransform,
    JordanWignerTransform,
    LinearEncodingTransform,
    ParityTransform,
    cnot_network_matrix,
    identity_matrix,
    random_invertible_matrix,
)


def random_hermitian_fermion_operator(n_modes, seed):
    """A small random hermitian fermionic operator for spectrum comparisons."""
    rng = np.random.default_rng(seed)
    op = FermionOperator.zero()
    for _ in range(4):
        p, q = rng.integers(0, n_modes, size=2)
        coeff = float(rng.normal())
        term = FermionOperator.single_excitation(int(p), int(q), coeff)
        op += term + term.hermitian_conjugate()
    p, q, r, s = rng.permutation(n_modes)[:4] if n_modes >= 4 else (0, 1, 0, 1)
    term = FermionOperator.double_excitation(int(p), int(q), int(r), int(s), 0.37)
    op += term + term.hermitian_conjugate()
    return op


class TestConstruction:
    def test_rejects_singular_gamma(self):
        with pytest.raises(ValueError):
            LinearEncodingTransform([[1, 1], [1, 1]])

    def test_rejects_rectangular_gamma(self):
        with pytest.raises(ValueError):
            LinearEncodingTransform(np.ones((2, 3)))

    def test_identity_gamma_equals_jordan_wigner(self):
        transform = LinearEncodingTransform(np.eye(3))
        assert transform.is_identity_encoding
        op = FermionOperator.double_excitation(0, 1, 2, 0, 0.5).anti_hermitian_part()
        assert DictLinearEncoding(transform).transform(op) == jordan_wigner(op, n_modes=3)


class TestTrustedPair:
    @pytest.mark.parametrize("seed", range(4))
    def test_from_pair_transforms_as_the_checked_constructor(self, seed, monkeypatch):
        """Given Γ and its inverse, ``from_pair`` inverts nothing and maps
        operators and planes exactly as ``LinearEncodingTransform(Γ)``."""
        n = 5
        gamma = random_invertible_matrix(n, np.random.default_rng(seed))
        checked = LinearEncodingTransform(gamma)
        op = random_hermitian_fermion_operator(n, seed)

        def no_inversion(matrix):
            raise AssertionError("from_pair must not invert Γ")

        monkeypatch.setattr(linear_encoding, "gf2_inverse", no_inversion)
        trusted = LinearEncodingTransform.from_pair(checked.gamma, checked._gamma_inverse)
        assert type(trusted) is LinearEncodingTransform
        assert trusted.n_modes == n and trusted.gamma is checked.gamma
        trusted_image = DictLinearEncoding(trusted).transform(op)
        assert trusted_image == DictLinearEncoding(checked).transform(op)


def _trusted(encoding):
    return LinearEncodingTransform.from_pair(encoding.gamma, encoding._gamma_inverse)


class TestIdentityFlag:
    """``is_identity_encoding`` is worked out once, when the transform binds Γ."""

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: JordanWignerTransform(6), True),
            (lambda: LinearEncodingTransform(np.eye(6)), True),
            (lambda: BravyiKitaevTransform(6), False),
            (lambda: ParityTransform(6), False),
            (
                lambda: LinearEncodingTransform(random_invertible_matrix(6, np.random.default_rng(3))),
                False,
            ),
            (lambda: _trusted(JordanWignerTransform(6)), True),
            (lambda: _trusted(BravyiKitaevTransform(6)), False),
        ],
        ids=["jw", "eye", "bravyi-kitaev", "parity", "random-gamma", "pair-identity", "pair-bk"],
    )
    def test_flag_matches_gamma_and_reads_build_no_identity(self, make, expected, monkeypatch):
        transform = make()
        assert transform.is_identity_encoding is expected
        assert expected == np.array_equal(transform.gamma, identity_matrix(6))
        built = []

        def counting_identity(n):
            built.append(n)
            return identity_matrix(n)

        monkeypatch.setattr(linear_encoding, "identity_matrix", counting_identity)
        assert transform.is_identity_encoding is expected
        assert transform.is_identity_encoding is expected
        assert built == []


class TestEmptyImages:
    """An operator whose JW image has no strings keeps its register size."""

    @pytest.fixture(
        params=[
            lambda: BravyiKitaevTransform(4),
            lambda: ParityTransform(4),
            lambda: LinearEncodingTransform(cnot_network_matrix(70, [(0, 69), (3, 66)])),
        ],
        ids=["bravyi-kitaev", "parity", "70-qubit-gamma"],
    )
    def transform(self, request):
        return request.param()

    def test_vanishing_product(self, transform):
        image = DictLinearEncoding(transform).transform(FermionOperator(((0, True), (0, True))))
        assert (image.n_qubits, image.terms) == (transform.n_modes, {})

    def test_zero_operator(self, transform):
        image = DictLinearEncoding(transform).transform(FermionOperator.zero())
        assert (image.n_qubits, image.terms) == (transform.n_modes, {})

    def test_constant_only_operator(self, transform):
        n = transform.n_modes
        image = DictLinearEncoding(transform).transform(FermionOperator.identity(-0.75))
        assert (image.n_qubits, image.terms) == (n, {PauliString.identity(n): -0.75})


class TestCanonicalAnticommutation:
    @pytest.mark.parametrize(
        "transform_factory",
        [
            lambda n: BravyiKitaevTransform(n),
            lambda n: ParityTransform(n),
            lambda n: LinearEncodingTransform(random_invertible_matrix(n, np.random.default_rng(5))),
        ],
        ids=["bravyi-kitaev", "parity", "random-gamma"],
    )
    def test_ladder_operator_algebra(self, transform_factory):
        n = 4
        transform = DictLinearEncoding(transform_factory(n))
        for i in range(n):
            for j in range(n):
                a_i = transform.annihilation_operator(i)
                adag_j = transform.creation_operator(j)
                anticommutator = a_i * adag_j + adag_j * a_i
                expected = QubitOperator.identity(n, 1.0 if i == j else 0.0)
                assert anticommutator == expected, (i, j)

    def test_number_operator_spectrum(self):
        transform = BravyiKitaevTransform(3)
        image = DictLinearEncoding(transform).transform(FermionOperator.number(1))
        eigenvalues = np.linalg.eigvalsh(image.to_dense())
        assert np.allclose(np.sort(np.unique(np.round(eigenvalues, 10))), [0, 1])


class TestSpectrumPreservation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_gamma_preserves_spectrum(self, seed):
        n = 4
        op = random_hermitian_fermion_operator(n, seed)
        jw_spectrum = np.sort(np.linalg.eigvalsh(jordan_wigner(op, n_modes=n).to_dense()))
        gamma = random_invertible_matrix(n, np.random.default_rng(seed + 100))
        adv_spectrum = np.sort(
            np.linalg.eigvalsh(generalized_transform(op, gamma).to_dense())
        )
        assert np.allclose(jw_spectrum, adv_spectrum)

    def test_bk_and_parity_preserve_spectrum(self):
        n = 4
        op = random_hermitian_fermion_operator(n, 3)
        reference = np.sort(np.linalg.eigvalsh(jordan_wigner(op, n_modes=n).to_dense()))
        for transformed in (bravyi_kitaev(op, n_modes=n), parity_transform(op, n_modes=n)):
            spectrum = np.sort(np.linalg.eigvalsh(transformed.to_dense()))
            assert np.allclose(reference, spectrum)


class TestStringWeights:
    def test_parity_transform_number_operator_weight(self):
        # In the parity encoding the number operator of mode j acts on at most
        # two qubits (j-1 and j).
        transform = ParityTransform(5)
        image = DictLinearEncoding(transform).transform(FermionOperator.number(3))
        assert image.max_weight() <= 2

    def test_bravyi_kitaev_reduces_chain_weight(self):
        n = 8
        jw_weight = jordan_wigner(FermionOperator.creation(n - 1), n_modes=n).max_weight()
        bk_weight = bravyi_kitaev(FermionOperator.creation(n - 1), n_modes=n).max_weight()
        assert bk_weight <= jw_weight


class TestModuleFunctions:
    def test_bravyi_kitaev_infers_modes(self):
        image = bravyi_kitaev(FermionOperator.number(2))
        assert image.n_qubits == 3

    def test_parity_requires_modes_for_constant(self):
        with pytest.raises(ValueError):
            parity_transform(FermionOperator.identity(1.0))

    def test_bk_requires_modes_for_constant(self):
        with pytest.raises(ValueError):
            bravyi_kitaev(FermionOperator.identity(1.0))
