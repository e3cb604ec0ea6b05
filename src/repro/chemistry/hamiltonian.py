"""Second-quantized molecular Hamiltonians in the molecular-orbital basis.

From a converged restricted Hartree-Fock solution this module builds the
spin-orbital Hamiltonian

``H = E_const + Σ_pq h_pq a†_p a_q + 1/2 Σ_pqrs ⟨pq|rs⟩ a†_p a†_q a_s a_r``

with physicists'-notation two-electron integrals, optionally restricted to an
active space with frozen core orbitals (the constant then absorbs the core
energy and the one-body integrals acquire the usual core-field correction).

Spin orbitals are interleaved: spin orbital ``2 p`` is the α (spin-up)
component of spatial orbital ``p`` and ``2 p + 1`` its β component.  This is
the ordering the paper's hybrid encoding assumes when it compresses the
``(2p, 2p+1)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.chemistry.hartree_fock import ScfNotConvergedError, ScfResult
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

#: Hamiltonian memo-cache traffic (per-ScfResult caches, global counters).
_HAMILTONIAN_HITS = get_metrics().counter("chemistry.hamiltonian.cache_hits")
_HAMILTONIAN_MISSES = get_metrics().counter("chemistry.hamiltonian.cache_misses")

#: Integrals at or below this magnitude are dropped when building operators
#: (:func:`repro.simulator.hamiltonian_sparse_matrix`).
INTEGRAL_TOLERANCE = 1e-10


@dataclass
class MolecularHamiltonian:
    """Spin-orbital second-quantized Hamiltonian of an (active space of a) molecule."""

    constant: float
    one_body: np.ndarray
    two_body: np.ndarray
    n_electrons: int
    orbital_energies: np.ndarray
    name: str = ""
    hartree_fock_energy: Optional[float] = None

    def __post_init__(self):
        self.one_body = np.asarray(self.one_body, dtype=float)
        self.two_body = np.asarray(self.two_body, dtype=float)
        n = self.one_body.shape[0]
        if self.one_body.shape != (n, n):
            raise ValueError("one_body must be square")
        if self.two_body.shape != (n, n, n, n):
            raise ValueError("two_body must have shape (n, n, n, n)")
        if self.n_electrons < 0 or self.n_electrons > n:
            raise ValueError("invalid electron count for the spin-orbital space")

    @property
    def n_spin_orbitals(self) -> int:
        return self.one_body.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.n_spin_orbitals

    def occupied_spin_orbitals(self) -> Tuple[int, ...]:
        """Spin orbitals occupied in the Hartree-Fock reference determinant."""
        return tuple(range(self.n_electrons))

    def virtual_spin_orbitals(self) -> Tuple[int, ...]:
        """Spin orbitals empty in the Hartree-Fock reference determinant."""
        return tuple(range(self.n_electrons, self.n_spin_orbitals))


def mo_one_body_integrals(scf: ScfResult) -> np.ndarray:
    """One-electron integrals in the molecular-orbital (spatial) basis."""
    coefficients = scf.orbital_coefficients
    return coefficients.T @ scf.core_hamiltonian @ coefficients


def mo_two_body_integrals(scf: ScfResult) -> np.ndarray:
    """Two-electron integrals ``(pq|rs)`` (chemists' notation) in the MO basis."""
    coefficients = scf.orbital_coefficients
    eri = scf.electron_repulsion
    eri = np.einsum("mp,mnls->pnls", coefficients, eri, optimize=True)
    eri = np.einsum("nq,pnls->pqls", coefficients, eri, optimize=True)
    eri = np.einsum("lr,pqls->pqrs", coefficients, eri, optimize=True)
    eri = np.einsum("st,pqrs->pqrt", coefficients, eri, optimize=True)
    return eri


def spin_orbital_integrals(
    one_body_mo: np.ndarray, two_body_mo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand spatial MO integrals into interleaved spin-orbital integrals.

    Returns ``(h, g)`` with ``h[p, q]`` the one-body matrix and ``g[p, q, r, s]``
    the physicists'-notation ⟨pq|rs⟩ tensor over spin orbitals.
    """
    n_spatial = one_body_mo.shape[0]
    n_spin = 2 * n_spatial
    one_body = np.zeros((n_spin, n_spin))
    two_body = np.zeros((n_spin, n_spin, n_spin, n_spin))

    for p in range(n_spatial):
        for q in range(n_spatial):
            for spin in range(2):
                one_body[2 * p + spin, 2 * q + spin] = one_body_mo[p, q]

    # ⟨pq|rs⟩ = (pr|qs) with spin conservation σ_p = σ_r and σ_q = σ_s.
    for p in range(n_spatial):
        for q in range(n_spatial):
            for r in range(n_spatial):
                for s in range(n_spatial):
                    value = two_body_mo[p, r, q, s]
                    if abs(value) <= INTEGRAL_TOLERANCE:
                        continue
                    for spin_pr in range(2):
                        for spin_qs in range(2):
                            two_body[
                                2 * p + spin_pr, 2 * q + spin_qs,
                                2 * r + spin_pr, 2 * s + spin_qs,
                            ] = value
    return one_body, two_body


def build_molecular_hamiltonian(
    scf: ScfResult,
    n_active_spatial_orbitals: Optional[int] = None,
    n_frozen_spatial_orbitals: int = 0,
    use_cache: bool = True,
    allow_unconverged: bool = False,
) -> MolecularHamiltonian:
    """Build the spin-orbital Hamiltonian, optionally in a frozen-core active space.

    Parameters
    ----------
    scf:
        Converged RHF solution.
    n_active_spatial_orbitals:
        Number of spatial orbitals kept (counted from the first non-frozen
        orbital).  Defaults to all remaining orbitals.
    n_frozen_spatial_orbitals:
        Number of lowest-energy doubly occupied orbitals frozen into the core.
    use_cache:
        Memoize the Hamiltonian on the SCF result, keyed per active-space
        specification, so repeated builds (benchmark sweeps over ansatz
        sizes) skip the MO integral transformation.  Hits return the same
        object — treat it as read-only or pass ``use_cache=False``.
    allow_unconverged:
        An unconverged ``scf`` raises
        :class:`~repro.chemistry.hartree_fock.ScfNotConvergedError` by
        default — MO integrals from an unconverged reference silently bias
        every downstream energy and circuit.  Pass True to build from the
        partial solution anyway (diagnostics, convergence studies).
    """
    if not scf.converged and not allow_unconverged:
        raise ScfNotConvergedError(scf)
    cache_key = (n_active_spatial_orbitals, int(n_frozen_spatial_orbitals))
    if use_cache:
        cached = scf._hamiltonian_cache.get(cache_key)
        if cached is not None:
            _HAMILTONIAN_HITS.inc()
            return cached
    _HAMILTONIAN_MISSES.inc()
    n_spatial = scf.n_orbitals
    n_frozen = int(n_frozen_spatial_orbitals)
    if n_frozen < 0 or n_frozen > scf.n_occupied:
        raise ValueError("cannot freeze more orbitals than are doubly occupied")
    if n_active_spatial_orbitals is None:
        n_active = n_spatial - n_frozen
    else:
        n_active = int(n_active_spatial_orbitals)
    if n_active < 1 or n_frozen + n_active > n_spatial:
        raise ValueError("invalid active-space specification")
    active = list(range(n_frozen, n_frozen + n_active))
    frozen = list(range(n_frozen))

    with get_tracer().span(
        "chemistry.hamiltonian",
        molecule=scf.molecule.name,
        n_active=n_active,
        n_frozen=n_frozen,
    ):
        one_body_mo = mo_one_body_integrals(scf)
        two_body_mo = mo_two_body_integrals(scf)

        # Core (frozen) energy and effective field on the active orbitals.
        core_energy = 0.0
        for i in frozen:
            core_energy += 2.0 * one_body_mo[i, i]
            for j in frozen:
                core_energy += 2.0 * two_body_mo[i, i, j, j] - two_body_mo[i, j, j, i]

        effective_one_body = one_body_mo[np.ix_(active, active)].copy()
        for a_index, p in enumerate(active):
            for b_index, q in enumerate(active):
                correction = 0.0
                for i in frozen:
                    correction += (
                        2.0 * two_body_mo[p, q, i, i] - two_body_mo[p, i, i, q]
                    )
                effective_one_body[a_index, b_index] += correction

        active_two_body = two_body_mo[np.ix_(active, active, active, active)].copy()

        one_body_so, two_body_so = spin_orbital_integrals(
            effective_one_body, active_two_body
        )

        n_active_electrons = scf.molecule.n_electrons - 2 * n_frozen
        orbital_energies = np.repeat(scf.orbital_energies[active], 2)

        result = MolecularHamiltonian(
            constant=float(scf.molecule.nuclear_repulsion + core_energy),
            one_body=one_body_so,
            two_body=two_body_so,
            n_electrons=n_active_electrons,
            orbital_energies=orbital_energies,
            name=scf.molecule.name,
            hartree_fock_energy=scf.energy,
        )
    if use_cache:
        scf._hamiltonian_cache[cache_key] = result
    return result
