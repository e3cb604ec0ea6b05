"""Binary (GF(2)) linear algebra for linear-reversible Clifford circuits.

The paper's *advanced fermion-to-qubit transformation* searches over
``Γ ∈ GL(N, 2)``, the group of invertible binary matrices.  Every such matrix
corresponds to a CNOT-only (linear reversible) circuit, and conjugating the
Jordan-Wigner image of an operator by that circuit yields a new, equally valid
fermion-to-qubit transformation.  This module provides:

* basic GF(2) matrix operations (multiplication, inversion, rank),
* random sampling of invertible matrices (used by simulated annealing moves),
* construction of structured encoding matrices (Bravyi-Kitaev / Fenwick-tree,
  parity encoding, block-diagonal assembly),
* the matrix of a given CNOT network (:func:`cnot_network_matrix`).

Γ is applied as a matrix, never as a circuit: the paper treats it as a
compile-time relabeling, so no CNOT network is synthesized for it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: A CNOT gate acting on wires of a linear reversible circuit.
CnotPair = Tuple[int, int]


def identity_matrix(n: int) -> np.ndarray:
    """Return the ``n x n`` identity over GF(2) as a uint8 array."""
    return np.eye(n, dtype=np.uint8)


def as_gf2(matrix: Sequence[Sequence[int]]) -> np.ndarray:
    """Coerce an array-like to a uint8 matrix with entries reduced mod 2."""
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValueError("expected a two-dimensional matrix")
    return (array.astype(np.int64) % 2).astype(np.uint8)


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two GF(2) matrices."""
    a, b = as_gf2(a), as_gf2(b)
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def gf2_matvec(a: np.ndarray, x: Sequence[int]) -> np.ndarray:
    """Apply a GF(2) matrix to a binary vector."""
    a = as_gf2(a)
    x = np.asarray(x, dtype=np.int64) % 2
    return (a.astype(np.int64) @ x % 2).astype(np.uint8)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a matrix over GF(2), computed by Gaussian elimination."""
    m = as_gf2(matrix).copy()
    rows, cols = m.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for row in range(pivot_row, rows):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        m[[pivot_row, pivot]] = m[[pivot, pivot_row]]
        for row in range(rows):
            if row != pivot_row and m[row, col]:
                m[row] ^= m[pivot_row]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def is_invertible(matrix: np.ndarray) -> bool:
    """True if the square GF(2) matrix has full rank."""
    matrix = as_gf2(matrix)
    rows, cols = matrix.shape
    return rows == cols and gf2_rank(matrix) == rows


def gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a GF(2) matrix via Gauss-Jordan elimination.

    Indices whose row and column both equal the identity's form an identity
    block of the inverse, so only the remaining submatrix is eliminated —
    for the sparse block-diagonal Γ of the Γ search that is a few rows.
    The elimination runs on one Python-int bit mask per row: bits ``0 ..
    n - 1`` hold the row of the submatrix and bits ``n .. 2n - 1`` the row
    of the growing inverse.

    Raises
    ------
    ValueError
        If the matrix is singular over GF(2).
    """
    m = as_gf2(matrix)
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("only square matrices can be inverted")
    inverse = identity_matrix(rows)
    off_identity = m ^ inverse
    active = np.flatnonzero(off_identity.any(axis=0) | off_identity.any(axis=1))
    n = active.size
    if not n:
        return inverse
    block = np.ix_(active, active)
    width = (2 * n + 7) // 8
    packed = np.packbits(m[block], axis=1, bitorder="little")
    augmented = [
        int.from_bytes(row.tobytes(), "little") | (1 << (n + index))
        for index, row in enumerate(packed)
    ]
    for col in range(n):
        bit = 1 << col
        pivot = next((row for row in range(col, n) if augmented[row] & bit), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        pivot_mask = augmented[col]
        for row in range(n):
            if row != col and augmented[row] & bit:
                augmented[row] ^= pivot_mask
    raw = b"".join(mask.to_bytes(width, "little") for mask in augmented)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(n, width), axis=1, bitorder="little"
    )
    inverse[block] = bits[:, n:2 * n]
    return inverse


def is_upper_triangular(matrix: np.ndarray) -> bool:
    """True if all entries strictly below the diagonal are zero."""
    m = as_gf2(matrix)
    return not np.any(np.tril(m, k=-1))


def random_invertible_matrix(
    n: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Sample a uniformly random invertible GF(2) matrix by rejection."""
    rng = rng or np.random.default_rng()
    while True:
        candidate = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if is_invertible(candidate):
            return candidate


def random_upper_triangular_matrix(
    n: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Sample a random invertible upper-triangular GF(2) matrix.

    The baseline of the paper restricts its particle-swarm search to this
    subset of transformations.
    """
    rng = rng or np.random.default_rng()
    matrix = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), k=1)
    matrix ^= identity_matrix(n)
    return matrix


# ----------------------------------------------------------------------
# Structured encoding matrices
# ----------------------------------------------------------------------
def jordan_wigner_matrix(n: int) -> np.ndarray:
    """Encoding matrix of the Jordan-Wigner transform (the identity)."""
    return identity_matrix(n)


def parity_matrix(n: int) -> np.ndarray:
    """Encoding matrix of the parity transform: qubit j stores sum_{i<=j} x_i."""
    return np.tril(np.ones((n, n), dtype=np.uint8))


def bravyi_kitaev_matrix(n: int) -> np.ndarray:
    """Encoding matrix of the Bravyi-Kitaev (Fenwick tree) transform.

    Built recursively for powers of two and truncated to the requested size,
    following Seeley, Richard and Love.  Row ``j`` indicates which occupation
    numbers qubit ``j`` stores the parity of.
    """
    if n < 1:
        raise ValueError("n must be positive")
    size = 1
    matrix = np.array([[1]], dtype=np.uint8)
    while size < n:
        doubled = np.zeros((2 * size, 2 * size), dtype=np.uint8)
        doubled[:size, :size] = matrix
        doubled[size:, size:] = matrix
        # The last qubit of the doubled block stores the parity of everything.
        doubled[-1, :] = 1
        matrix = doubled
        size *= 2
    return matrix[:n, :n].copy()


def block_diagonal(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble a block-diagonal GF(2) matrix from the given square blocks."""
    blocks = [as_gf2(b) for b in blocks]
    for block in blocks:
        if block.shape[0] != block.shape[1]:
            raise ValueError("all blocks must be square")
    n = sum(block.shape[0] for block in blocks)
    matrix = np.zeros((n, n), dtype=np.uint8)
    offset = 0
    for block in blocks:
        size = block.shape[0]
        matrix[offset:offset + size, offset:offset + size] = block
        offset += size
    return matrix


# ----------------------------------------------------------------------
# CNOT networks
# ----------------------------------------------------------------------
def cnot_network_matrix(n: int, cnots: Sequence[CnotPair]) -> np.ndarray:
    """Return the GF(2) matrix implemented by a sequence of CNOT gates.

    Convention: applying ``CNOT(control, target)`` to a register holding the
    binary vector ``x`` updates ``x[target] ^= x[control]``.  The gates act in
    list order, so the overall matrix is the product of elementary row-update
    matrices with the *last* gate leftmost.
    """
    matrix = identity_matrix(n)
    for control, target in cnots:
        if control == target:
            raise ValueError("CNOT control and target must differ")
        matrix[target] ^= matrix[control]
    return matrix
