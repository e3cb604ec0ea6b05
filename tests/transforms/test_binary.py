"""Unit tests for GF(2) linear algebra and CNOT-network synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms import binary


class TestBasicOperations:
    def test_identity(self):
        assert np.array_equal(binary.identity_matrix(3), np.eye(3, dtype=np.uint8))

    def test_as_gf2_reduces_mod_2(self):
        assert np.array_equal(binary.as_gf2([[2, 3], [4, 5]]), [[0, 1], [0, 1]])

    def test_as_gf2_rejects_vectors(self):
        with pytest.raises(ValueError):
            binary.as_gf2([1, 0, 1])

    def test_matmul(self):
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [1, 1]]
        assert np.array_equal(binary.gf2_matmul(a, b), [[0, 1], [1, 1]])

    def test_matvec(self):
        assert np.array_equal(binary.gf2_matvec([[1, 1], [0, 1]], [1, 1]), [0, 1])

    def test_rank_full(self):
        assert binary.gf2_rank(np.eye(4)) == 4

    def test_rank_deficient(self):
        assert binary.gf2_rank([[1, 1], [1, 1]]) == 1

    def test_is_invertible(self):
        assert binary.is_invertible([[1, 1], [0, 1]])
        assert not binary.is_invertible([[1, 1], [1, 1]])
        assert not binary.is_invertible(np.ones((2, 3)))

    def test_inverse_round_trip(self):
        matrix = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        inverse = binary.gf2_inverse(matrix)
        assert np.array_equal(binary.gf2_matmul(matrix, inverse), np.eye(3, dtype=np.uint8))

    def test_inverse_singular_raises(self):
        with pytest.raises(ValueError):
            binary.gf2_inverse([[1, 1], [1, 1]])

    def test_inverse_non_square_raises(self):
        with pytest.raises(ValueError):
            binary.gf2_inverse(np.ones((2, 3)))

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_embedded_blocks(self, n, seed):
        """Identity rows/columns split off; the rest is eliminated."""
        rng = np.random.default_rng(seed)
        indices = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        block = binary.random_invertible_matrix(len(indices), rng)
        matrix = np.eye(n, dtype=np.uint8)
        matrix[np.ix_(indices, indices)] = block
        inverse = binary.gf2_inverse(matrix)
        assert np.array_equal(binary.gf2_matmul(matrix, inverse), np.eye(n, dtype=np.uint8))

    def test_inverse_singular_beside_identity_raises(self):
        with pytest.raises(ValueError, match="singular"):
            binary.gf2_inverse([[1, 0, 0], [0, 0, 0], [0, 0, 1]])

    @given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_inverse_on_random_and_block_diagonal_matrices(self, n, seed, block_diagonal):
        """Γ·Γ⁻¹ = Γ⁻¹·Γ = I on invertible matrices, dense or block-diagonal
        like the Γ search's candidates; a 0/1 uint8 result of Γ's shape."""
        rng = np.random.default_rng(seed)
        if block_diagonal:
            matrix = np.eye(n, dtype=np.uint8)
            start = 0
            while start < n:
                size = int(rng.integers(1, min(6, n - start) + 1))
                span = slice(start, start + size)
                matrix[span, span] = binary.random_invertible_matrix(size, rng)
                start += size
        else:
            matrix = binary.random_invertible_matrix(n, rng)
        inverse = binary.gf2_inverse(matrix)
        assert inverse.dtype == np.uint8 and inverse.shape == (n, n)
        identity = np.eye(n, dtype=np.uint8)
        assert np.array_equal(binary.gf2_matmul(matrix, inverse), identity)
        assert np.array_equal(binary.gf2_matmul(inverse, matrix), identity)

    @given(st.integers(1, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_singular_matrices_raise(self, n, seed):
        """A random matrix raises exactly when its GF(2) rank is short."""
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if n > 2 and rng.integers(2):
            matrix[0] = matrix[1] ^ matrix[2]  # a dependent row
        if binary.gf2_rank(matrix) == n:
            inverse = binary.gf2_inverse(matrix)
            assert np.array_equal(binary.gf2_matmul(matrix, inverse), np.eye(n, dtype=np.uint8))
        else:
            with pytest.raises(ValueError, match="matrix is singular over GF\\(2\\)"):
                binary.gf2_inverse(matrix)

    def test_is_upper_triangular(self):
        assert binary.is_upper_triangular([[1, 1], [0, 1]])
        assert not binary.is_upper_triangular([[1, 0], [1, 1]])


class TestRandomMatrices:
    def test_random_invertible_is_invertible(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert binary.is_invertible(binary.random_invertible_matrix(5, rng))

    def test_random_upper_triangular(self):
        rng = np.random.default_rng(7)
        m = binary.random_upper_triangular_matrix(6, rng)
        assert binary.is_upper_triangular(m)
        assert binary.is_invertible(m)


class TestStructuredMatrices:
    def test_jordan_wigner_matrix_is_identity(self):
        assert np.array_equal(binary.jordan_wigner_matrix(4), np.eye(4, dtype=np.uint8))

    def test_parity_matrix(self):
        expected = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        assert np.array_equal(binary.parity_matrix(3), expected)

    def test_bravyi_kitaev_matrix_power_of_two(self):
        m = binary.bravyi_kitaev_matrix(4)
        # Known Fenwick-tree structure for 4 modes.
        expected = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]]
        assert np.array_equal(m, expected)

    def test_bravyi_kitaev_matrix_invertible(self):
        for n in (1, 2, 3, 5, 7, 8, 11):
            assert binary.is_invertible(binary.bravyi_kitaev_matrix(n))

    def test_bravyi_kitaev_invalid_size(self):
        with pytest.raises(ValueError):
            binary.bravyi_kitaev_matrix(0)

    def test_block_diagonal(self):
        blocks = [np.array([[1]]), np.array([[1, 1], [0, 1]])]
        expected = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
        assert np.array_equal(binary.block_diagonal(blocks), expected)

    def test_block_diagonal_rejects_rectangular(self):
        with pytest.raises(ValueError):
            binary.block_diagonal([np.ones((1, 2))])


class TestCnotNetworkMatrix:
    def test_network_matrix_single_gate(self):
        # CNOT(0, 1) adds row 0 into row 1.
        expected = [[1, 0], [1, 1]]
        assert np.array_equal(binary.cnot_network_matrix(2, [(0, 1)]), expected)

    def test_network_matrix_rejects_equal_wires(self):
        with pytest.raises(ValueError):
            binary.cnot_network_matrix(2, [(1, 1)])

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reversed_network_is_the_inverse(self, n, seed):
        rng = np.random.default_rng(seed)
        cnots = [tuple(int(q) for q in rng.choice(n, 2, replace=False)) for _ in range(3 * n)]
        matrix = binary.cnot_network_matrix(n, cnots)
        assert np.array_equal(
            binary.cnot_network_matrix(n, cnots[::-1]), binary.gf2_inverse(matrix)
        )
