"""Sparse statevector utilities for exact energy evaluation.

The paper's Fig. 5 reports ground-state energy estimates of the water molecule
obtained from VQE; in this reproduction the quantum computer is replaced by an
exact sparse statevector simulation.  Qubit ``0`` is the most significant bit
of the computational-basis index, matching the convention of
:meth:`repro.operators.pauli.PauliString.to_sparse`.

Every operator the simulator needs — the molecular Hamiltonian and each UCC
generator ``T − T†`` — is a sum of products of fermionic ladder operators, and
:func:`ladder_sparse` builds its Jordan-Wigner matrix directly on the bit
masks of the basis indices.  The particle number is the popcount of the
basis index, so it needs no matrix at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np
from scipy import sparse as sp
from scipy.sparse import spmatrix
from scipy.sparse.linalg import expm_multiply

#: A product of ladder operators, ``(mode, is_creation)`` pairs applied right to left.
LadderProduct = Sequence[Tuple[int, bool]]


def basis_state(
    n_qubits: int, occupied: Sequence[int], sparse: bool = False
) -> Union[np.ndarray, sp.csc_matrix]:
    """Computational basis state with the given qubits set to ``1``.

    With ``sparse=True`` the state is returned as a ``(2**n, 1)``
    :class:`scipy.sparse.csc_matrix` column vector holding the single
    non-zero amplitude, so no dense ``2**n`` array is ever allocated — at 20+
    qubits the dense path costs tens of megabytes per state, the sparse path
    a few bytes.
    """
    index = 0
    for qubit in occupied:
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
        index |= 1 << (n_qubits - 1 - qubit)
    if sparse:
        return sp.csc_matrix(
            (np.ones(1, dtype=complex), ([index], [0])),
            shape=(2 ** n_qubits, 1),
            dtype=complex,
        )
    state = np.zeros(2 ** n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def hartree_fock_state(
    n_qubits: int, n_electrons: int, sparse: bool = False
) -> Union[np.ndarray, sp.csc_matrix]:
    """Jordan-Wigner Hartree-Fock reference: the first ``n_electrons`` modes filled.

    ``sparse=True`` returns the state as a sparse column vector (see
    :func:`basis_state`).
    """
    if n_electrons < 0 or n_electrons > n_qubits:
        raise ValueError("invalid electron count")
    return basis_state(n_qubits, range(n_electrons), sparse=sparse)


def expectation_value(operator: spmatrix, state: np.ndarray) -> float:
    """Real part of ``⟨state| operator |state⟩``."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    matrix = sp.csr_matrix(operator)
    if matrix.shape[0] != state.size:
        raise ValueError("operator and state dimensions do not match")
    return float(np.real(np.vdot(state, matrix @ state)))


def apply_exponential(
    generator: spmatrix,
    state: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Apply ``exp(scale * generator)`` to a statevector.

    ``generator`` is typically the anti-hermitian image ``θ (T - T†)`` of a
    UCC excitation term, so the result stays normalized.
    """
    matrix = sp.csr_matrix(generator)
    state = np.asarray(state, dtype=complex).reshape(-1)
    if matrix.shape[0] != state.size:
        raise ValueError("generator and state dimensions do not match")
    if scale != 1.0:
        matrix = matrix * scale
    return expm_multiply(matrix, state)


def normalize(state: np.ndarray) -> np.ndarray:
    """Return the state rescaled to unit norm."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(state)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return state / norm


def ladder_sparse(
    products: Iterable[Tuple[LadderProduct, complex]], n_modes: int
) -> sp.csr_matrix:
    """Jordan-Wigner matrix of ``Σ coefficient · product`` on ``n_modes`` modes.

    Mode ``j`` is index bit ``n_modes − 1 − j``.  ``a_j`` maps ``|b⟩`` to
    ``(−1)^{occupied modes below j} |b ⊕ bit_j⟩`` when mode ``j`` is occupied
    and to zero otherwise; ``a†_j`` needs it empty.  Walking a product right
    to left on masks instead of states gives its action in closed form.  Each
    factor tests occupancy (fixing one bit of ``b`` in ``required``), flips its
    bit (``flip``) and reads the lower modes of ``b ⊕ flip``, which is the
    parity of ``b ∧ lower`` plus that of ``flip ∧ lower``.  So the product is
    non-zero exactly on the ``b`` whose touched bits equal ``required``, maps
    them to ``b ⊕ flip`` and signs them by ``(−1)^{|b ∧ sign_mask|}`` times a
    constant.  Products with the same masks add their coefficients first, and
    every set of touched modes enumerates its basis states once.
    """
    full = (1 << n_modes) - 1
    # touched modes -> (required, flip, sign_mask) -> summed coefficient
    groups: Dict[int, Dict[Tuple[int, int, int], complex]] = {}
    for product, coefficient in products:
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
            group = groups.setdefault(touched, {})
            key = (required, flip, sign_mask)
            group[key] = group.get(key, 0) + (-coefficient if negative else coefficient)

    dim = 1 << n_modes
    basis = np.arange(dim, dtype=np.int64)
    rows, columns, values = [], [], []
    for touched, group in groups.items():
        masks = np.array(list(group), dtype=np.int64)
        states = basis[(basis & touched) == 0] | masks[:, :1]
        signs = 1.0 - 2.0 * (np.bitwise_count(states & masks[:, 2:]) & 1)
        coefficients = np.array(list(group.values()), dtype=complex)
        columns.append(states.ravel())
        rows.append((states ^ masks[:, 1:2]).ravel())
        values.append((coefficients[:, None] * signs).ravel())
    if not values:
        return sp.csr_matrix((dim, dim), dtype=complex)
    return sp.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(columns))),
        shape=(dim, dim),
    )


def particle_number(state: np.ndarray, n_qubits: int) -> float:
    """Expectation of the total particle number in a Jordan-Wigner encoded state.

    The number operator is diagonal: its value on ``|b⟩`` is the popcount of ``b``.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.size != 2 ** n_qubits:
        raise ValueError("state does not match the register size")
    return float(np.abs(state) ** 2 @ occupations(n_qubits))


def occupations(n_qubits: int) -> np.ndarray:
    """Jordan-Wigner particle number of every basis index: its popcount."""
    return np.bitwise_count(np.arange(2 ** n_qubits, dtype=np.uint64))


def state_fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Squared overlap ``|⟨a|b⟩|²`` of two pure states."""
    a = normalize(state_a)
    b = normalize(state_b)
    return float(abs(np.vdot(a, b)) ** 2)
