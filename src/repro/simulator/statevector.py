"""Sparse statevector utilities for exact energy evaluation.

The paper's Fig. 5 reports ground-state energy estimates of the water molecule
obtained from VQE; in this reproduction the quantum computer is replaced by an
exact sparse statevector simulation.  Qubit ``0`` is the most significant bit
of the computational-basis index, matching the convention of
:meth:`repro.operators.pauli.PauliString.to_sparse`.

Every operator the simulator needs — the molecular Hamiltonian and each UCC
generator ``T − T†`` — is a real sum of particle-conserving products of
fermionic ladder operators.  Jordan-Wigner keeps the occupation basis, so the
particle number of a basis index is its popcount and such a sum never leaves
the N-electron sector: the indices with N set bits.  :func:`ladder_sparse`
builds the real matrix of the sum on that sector alone, ``C(n, N)`` states
instead of ``2**n`` (1001 of 16384 for water's 14 spin orbitals and 10
electrons).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np
from scipy import sparse as sp
from scipy.sparse import spmatrix

#: A product of ladder operators, ``(mode, is_creation)`` pairs applied right to left.
LadderProduct = Sequence[Tuple[int, bool]]

#: Entries of the ``keys × states`` match table built at once: 8 MB of int64.
_MATCH_CHUNK = 1 << 20


def expectation_value(operator: spmatrix, state: np.ndarray) -> float:
    """Real part of ``⟨state| operator |state⟩``."""
    state = np.asarray(state).reshape(-1)
    matrix = sp.csr_matrix(operator)
    if matrix.shape[0] != state.size:
        raise ValueError("operator and state dimensions do not match")
    return float(np.real(np.vdot(state, matrix @ state)))


def normalize(state: np.ndarray) -> np.ndarray:
    """Return the state rescaled to unit norm."""
    state = np.asarray(state).reshape(-1)
    norm = np.linalg.norm(state)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return state / norm


def ladder_sparse(
    products: Iterable[Tuple[LadderProduct, float]], n_modes: int, n_particles: int
) -> sp.csr_matrix:
    """Real Jordan-Wigner matrix of ``Σ coefficient · product`` on one particle sector.

    Mode ``j`` is index bit ``n_modes − 1 − j``.  ``a_j`` maps ``|b⟩`` to
    ``(−1)^{occupied modes below j} |b ⊕ bit_j⟩`` when mode ``j`` is occupied
    and to zero otherwise; ``a†_j`` needs it empty.  Walking a product right
    to left on masks instead of states gives its action in closed form.  Each
    factor tests occupancy (fixing one bit of ``b`` in ``required``), flips its
    bit (``flip``) and reads the lower modes of ``b ⊕ flip``, which is the
    parity of ``b ∧ lower`` plus that of ``flip ∧ lower``.  So the product is
    non-zero exactly on the ``b`` whose touched bits equal ``required``, maps
    them to ``b ⊕ flip`` and signs them by ``(−1)^{|b ∧ sign_mask|}`` times a
    constant.  Products with the same masks add their coefficients first.

    Row and column ``k`` stand for the ``k``-th smallest basis index with
    ``n_particles`` set bits; the Hartree-Fock determinant, the first
    ``n_particles`` modes filled, is the last.  A product with as many
    creations as annihilations maps this sector to itself, so its image is
    found there by binary search.  A product that changes the particle number
    raises :class:`ValueError`.
    """
    if not 0 <= n_particles <= n_modes:
        raise ValueError(f"invalid particle number {n_particles} for {n_modes} modes")
    full = (1 << n_modes) - 1
    # (touched, required, flip, sign_mask) -> summed coefficient
    keys: Dict[Tuple[int, int, int, int], float] = {}
    for product, coefficient in products:
        if 2 * sum(is_creation for _, is_creation in product) != len(product):
            raise ValueError(f"ladder product {tuple(product)} changes the particle number")
        touched = required = flip = sign_mask = negative = 0
        for mode, is_creation in reversed(product):
            if not 0 <= mode < n_modes:
                raise ValueError(f"mode {mode} out of range for {n_modes} modes")
            bit = 1 << (n_modes - 1 - mode)
            need = (0 if is_creation else bit) ^ (flip & bit)
            if touched & bit and (required & bit) != need:
                break  # a repeated a_j or a†_j: the product vanishes
            touched |= bit
            required |= need
            lower = full ^ ((bit << 1) - 1)
            negative ^= (flip & lower).bit_count() & 1
            sign_mask ^= lower
            flip ^= bit
        else:
            key = (touched, required, flip, sign_mask)
            keys[key] = keys.get(key, 0.0) + (-coefficient if negative else coefficient)

    basis = np.arange(1 << n_modes, dtype=np.int64)
    sector = basis[np.bitwise_count(basis) == n_particles]
    masks = np.array(list(keys), dtype=np.int64).reshape(-1, 4)
    coefficients = np.array(list(keys.values()), dtype=float)
    rows, columns, values = [], [], []
    step = max(1, _MATCH_CHUNK // sector.size)
    for start in range(0, len(masks), step):
        chunk = masks[start:start + step]
        key, column = np.nonzero((sector & chunk[:, :1]) == chunk[:, 1:2])
        states = sector[column]
        signs = 1.0 - 2.0 * (np.bitwise_count(states & chunk[key, 3]) & 1)
        columns.append(column)
        rows.append(np.searchsorted(sector, states ^ chunk[key, 2]))
        values.append(coefficients[start + key] * signs)
    dim = sector.size
    if not values:
        return sp.csr_matrix((dim, dim))
    return sp.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(columns))),
        shape=(dim, dim),
    )


def state_fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Squared overlap ``|⟨a|b⟩|²`` of two pure states."""
    a = normalize(state_a)
    b = normalize(state_b)
    return float(abs(np.vdot(a, b)) ** 2)
