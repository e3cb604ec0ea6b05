"""Tests for the prior-art baseline compiler (GT column of Table I)."""

import numpy as np
import pytest

from repro.baselines import (
    BOSONIC_TERM_CNOT_COST,
    BaselineCompiler,
    naive_cnot_count,
)
from repro.transforms import (
    BravyiKitaevTransform,
    JordanWignerTransform,
    is_upper_triangular,
)
from repro.vqe import ExcitationTerm


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


@pytest.fixture
def mixed_terms():
    return [
        term((4, 5), (0, 1)),     # bosonic
        term((4, 5), (0, 3)),     # hybrid
        term((4, 7), (0, 3)),     # fermionic
        term((6,), (0,)),         # single
    ]


class TestNaiveCompilation:
    def test_empty_terms(self):
        assert naive_cnot_count([], JordanWignerTransform(4)) == 0

    def test_single_bosonic_double_under_jw(self):
        # One double excitation expands to eight weight-4 strings; consecutive
        # strings with a shared target cancel heavily but the result is
        # strictly positive and bounded by the un-cancelled cost.
        count = naive_cnot_count([term((2, 3), (0, 1))], JordanWignerTransform(4))
        assert 0 < count <= 8 * 6

    def test_jw_and_bk_generally_differ(self, mixed_terms):
        jw = naive_cnot_count(mixed_terms, JordanWignerTransform(8))
        bk = naive_cnot_count(mixed_terms, BravyiKitaevTransform(8))
        assert jw > 0 and bk > 0

    def test_count_grows_with_more_terms(self, mixed_terms):
        transform = JordanWignerTransform(8)
        shorter = naive_cnot_count(mixed_terms[:2], transform)
        longer = naive_cnot_count(mixed_terms, transform)
        assert longer > shorter


class TestBaselineCompiler:
    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            BaselineCompiler().compile([])

    def test_bosonic_terms_compressed(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        assert result.n_compressed_terms == 1
        assert result.bosonic_cnot_count == BOSONIC_TERM_CNOT_COST

    def test_compression_can_be_disabled(self, mixed_terms):
        with_compression = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        without = BaselineCompiler(use_bosonic_encoding=False).compile(mixed_terms, n_qubits=8)
        assert without.n_compressed_terms == 0
        assert without.cnot_count >= with_compression.cnot_count

    def test_baseline_not_worse_than_naive_jw(self, mixed_terms):
        baseline = BaselineCompiler().compile(mixed_terms, n_qubits=8).cnot_count
        naive = naive_cnot_count(mixed_terms, JordanWignerTransform(8))
        assert baseline <= naive

    def test_identity_transform_by_default(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        assert np.array_equal(result.transform_matrix, np.eye(8, dtype=np.uint8))

    def test_explicit_transform_used(self, mixed_terms):
        gamma = np.eye(8, dtype=np.uint8)
        gamma[0, 3] = 1
        result = BaselineCompiler(transform_matrix=gamma).compile(mixed_terms, n_qubits=8)
        assert np.array_equal(result.transform_matrix, gamma)

    def test_rotations_have_valid_targets(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        for string, target in result.ordered_rotations:
            assert target in string.support

    def test_cnot_count_is_sum_of_segments(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        assert result.cnot_count == result.bosonic_cnot_count + result.rotation_cnot_count

    @pytest.mark.parametrize("index", [1, 2, 3], ids=["hybrid", "fermionic", "single"])
    def test_zero_angle_term_compiles_like_no_term(self, mixed_terms, index):
        """A non-bosonic term at θ = 0 expands to no rotations: the count and
        the compiled sequence are those of the list without it."""
        parameters = [0.3, -0.7, 1.1, 0.5]
        parameters[index] = 0.0
        rest = mixed_terms[:index] + mixed_terms[index + 1:]
        rest_parameters = parameters[:index] + parameters[index + 1:]
        gamma = np.eye(8, dtype=np.uint8)
        gamma[0, 3] = 1
        for compiler in (BaselineCompiler(), BaselineCompiler(transform_matrix=gamma)):
            with_term = compiler.compile(mixed_terms, n_qubits=8, parameters=parameters)
            without = compiler.compile(rest, n_qubits=8, parameters=rest_parameters)
            assert with_term.cnot_count == without.cnot_count
            assert with_term.ordered_exponentials == without.ordered_exponentials
            assert with_term.ordered_rotations == without.ordered_rotations


class TestPsoTransformSearch:
    def test_search_returns_upper_triangular_invertible(self, mixed_terms):
        compiler = BaselineCompiler()
        gamma = compiler.search_transform(
            mixed_terms, n_qubits=8, n_particles=4, iterations=2,
            rng=np.random.default_rng(0),
        )
        assert is_upper_triangular(gamma)
        assert np.all(np.diag(gamma) == 1)

    def test_search_does_not_hurt(self, mixed_terms):
        reference = BaselineCompiler().compile(mixed_terms, n_qubits=8).cnot_count
        compiler = BaselineCompiler()
        compiler.search_transform(
            mixed_terms, n_qubits=8, n_particles=4, iterations=3,
            rng=np.random.default_rng(1),
        )
        searched = compiler.compile(mixed_terms, n_qubits=8).cnot_count
        # PSO is seeded with the identity, so the best found is never worse.
        assert searched <= reference
