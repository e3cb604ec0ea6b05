"""Variational quantum eigensolver with a Trotterized UCC ansatz.

Implements the computational loop of Fig. 1 of the paper: the ansatz is grown
one HMP2-ranked excitation term at a time, the parameters are re-optimized
after every addition (with warm starts), and the loop stops once the energy
estimate is within a threshold — chemical accuracy by default — of the exact
ground state, or once a maximum ansatz size is reached.

The "quantum computer" is an exact sparse statevector simulation on the
N-electron sector, so the energies reported here correspond to the noiseless,
infinite-shot limit the paper's Fig. 5 assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import minimize

from repro.chemistry import MolecularHamiltonian
from repro.simulator import (
    CHEMICAL_ACCURACY,
    expectation_value,
    fci_ground_state_energy,
    hamiltonian_sparse_matrix,
    ladder_sparse,
)
from repro.vqe.uccsd import ExcitationTerm


@dataclass
class UccAnsatz:
    """A Trotterized UCC ansatz: an ordered list of excitation terms.

    The prepared state is ``Π_k exp(θ_k (T_k - T_k†)) |HF⟩`` with the product
    applied left-to-right in list order (term 0 acts on the reference first).
    States are real vectors on the ``n_electrons`` sector of
    :func:`~repro.simulator.ladder_sparse`, where the Hartree-Fock
    determinant is the last basis state.
    """

    n_qubits: int
    n_electrons: int
    terms: List[ExcitationTerm] = field(default_factory=list)

    def __post_init__(self):
        if not 0 <= self.n_electrons <= self.n_qubits:
            raise ValueError("invalid electron count")
        self._generators: List[sparse.csr_matrix] = [
            self._build_generator(term) for term in self.terms
        ]

    def _build_generator(self, term: ExcitationTerm) -> sparse.csr_matrix:
        if term.max_spin_orbital() >= self.n_qubits:
            raise ValueError(
                f"term {term} acts outside a register of {self.n_qubits} spin orbitals"
            )
        # T = a†_p (a†_q) a_s a_r and T† = a†_r a†_s (a_q) a_p: the generator T − T†.
        excitation = [(mode, True) for mode in term.creation]
        excitation += [(mode, False) for mode in reversed(term.annihilation)]
        adjoint = [(mode, not is_creation) for mode, is_creation in reversed(excitation)]
        return ladder_sparse(
            [(excitation, 1.0), (adjoint, -1.0)], self.n_qubits, self.n_electrons
        )

    @property
    def n_parameters(self) -> int:
        return len(self.terms)

    def add_term(self, term: ExcitationTerm) -> None:
        """Append an excitation term (growing the ansatz by one parameter)."""
        self._generators.append(self._build_generator(term))
        self.terms.append(term)

    def prepare_state(self, parameters: Sequence[float]) -> np.ndarray:
        """Apply the parametrized ansatz to the Hartree-Fock reference.

        A single or double generator ``G`` satisfies ``G³ = −G``, so each
        factor is ``exp(θG) = I + sin θ·G + (1 − cos θ)·G²``.
        """
        parameters = np.asarray(parameters, dtype=float)
        if parameters.size != self.n_parameters:
            raise ValueError(
                f"expected {self.n_parameters} parameters, got {parameters.size}"
            )
        state = np.zeros(comb(self.n_qubits, self.n_electrons))
        state[-1] = 1.0
        for theta, generator in zip(parameters, self._generators):
            image = generator @ state
            state = state + np.sin(theta) * image + (1.0 - np.cos(theta)) * (generator @ image)
        return state

    def energy(self, parameters: Sequence[float], hamiltonian_sparse: sparse.spmatrix) -> float:
        """Energy expectation of the prepared state."""
        return expectation_value(hamiltonian_sparse, self.prepare_state(parameters))


@dataclass
class VqeResult:
    """Result of optimizing a fixed-size ansatz."""

    energy: float
    parameters: np.ndarray
    n_iterations: int
    success: bool


@dataclass
class AdaptiveVqeResult:
    """Result of the full Fig. 1 loop (ansatz grown term by term)."""

    energies: List[float]
    n_terms: List[int]
    parameters: np.ndarray
    terms: List[ExcitationTerm]
    exact_energy: float
    converged: bool

    @property
    def final_energy(self) -> float:
        return self.energies[-1]

    def errors(self) -> List[float]:
        """Absolute errors against the exact ground-state energy."""
        return [abs(energy - self.exact_energy) for energy in self.energies]


def optimize_ansatz(
    ansatz: UccAnsatz,
    hamiltonian_sparse: sparse.spmatrix,
    initial_parameters: Optional[Sequence[float]] = None,
    method: str = "BFGS",
    maxiter: int = 200,
) -> VqeResult:
    """Classically optimize the ansatz parameters to minimize the energy."""
    if initial_parameters is None:
        initial_parameters = np.zeros(ansatz.n_parameters)
    initial_parameters = np.asarray(initial_parameters, dtype=float)
    if ansatz.n_parameters == 0:
        energy = ansatz.energy(initial_parameters, hamiltonian_sparse)
        return VqeResult(energy=energy, parameters=np.zeros(0), n_iterations=0, success=True)

    result = minimize(
        lambda parameters: ansatz.energy(parameters, hamiltonian_sparse),
        initial_parameters,
        method=method,
        options={"maxiter": maxiter},
    )
    return VqeResult(
        energy=float(result.fun),
        parameters=np.asarray(result.x, dtype=float),
        n_iterations=int(getattr(result, "nit", 0)),
        success=bool(result.success),
    )


def adaptive_vqe(
    hamiltonian: MolecularHamiltonian,
    ranked_terms: Sequence[ExcitationTerm],
    max_terms: Optional[int] = None,
    threshold: float = CHEMICAL_ACCURACY,
    exact_energy: Optional[float] = None,
    method: str = "BFGS",
    maxiter: int = 200,
) -> AdaptiveVqeResult:
    """Run the Fig. 1 VQE loop, growing the ansatz in HMP2 order.

    Parameters
    ----------
    hamiltonian:
        Molecular Hamiltonian (active space) to solve.
    ranked_terms:
        Excitation terms in decreasing order of importance (HMP2 ordering).
    max_terms:
        Maximum ansatz size, at least 1; defaults to using every provided
        term.  ``max_terms < 1`` or no ranked terms raises :class:`ValueError`,
        as the result would hold no energy.
    threshold:
        Stop when ``|E - E_exact| <= threshold`` (chemical accuracy default).
    exact_energy:
        Exact ground-state energy; computed by sparse FCI when omitted.
    """
    if not ranked_terms:
        raise ValueError("adaptive_vqe needs at least one ranked term")
    if max_terms is None:
        max_terms = len(ranked_terms)
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms}")
    max_terms = min(max_terms, len(ranked_terms))
    if exact_energy is None:
        exact_energy = fci_ground_state_energy(hamiltonian)

    matrix = hamiltonian_sparse_matrix(hamiltonian)
    ansatz = UccAnsatz(
        n_qubits=hamiltonian.n_spin_orbitals, n_electrons=hamiltonian.n_electrons, terms=[]
    )
    energies: List[float] = []
    term_counts: List[int] = []
    parameters = np.zeros(0)
    converged = False

    for index in range(max_terms):
        ansatz.add_term(ranked_terms[index])
        warm_start = np.concatenate([parameters, [0.0]])
        result = optimize_ansatz(
            ansatz, matrix, initial_parameters=warm_start, method=method, maxiter=maxiter
        )
        parameters = result.parameters
        energies.append(result.energy)
        term_counts.append(ansatz.n_parameters)
        if abs(result.energy - exact_energy) <= threshold:
            converged = True
            break

    return AdaptiveVqeResult(
        energies=energies,
        n_terms=term_counts,
        parameters=parameters,
        terms=list(ansatz.terms),
        exact_energy=float(exact_energy),
        converged=converged,
    )
