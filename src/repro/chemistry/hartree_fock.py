"""Restricted Hartree-Fock (RHF) self-consistent field solver.

The Hartree-Fock determinant is both the reference state |Ψ0⟩ of the UCCSD
ansatz (the paper follows [8], [9] in using it) and the source of the
molecular-orbital integrals that define the second-quantized Hamiltonian.
The SCF procedure uses symmetric orthogonalization and simple Fock-matrix
damping; DIIS is unnecessary for the small closed-shell molecules of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh

from repro import faults
from repro.chemistry.basis import BasisFunction, Molecule, build_sto3g_basis
from repro.chemistry.integrals import (
    build_core_hamiltonian,
    build_electron_repulsion_tensor,
    build_overlap_matrix,
    integral_cache_stats,
)
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

#: SCF memo-cache traffic, in the global obs registry.
_SCF_HITS = get_metrics().counter("chemistry.scf.cache_hits")
_SCF_MISSES = get_metrics().counter("chemistry.scf.cache_misses")


def molecule_fingerprint(molecule: Molecule) -> Tuple:
    """Hashable identity of a molecule (name + geometry + charge), for memo keys.

    The name participates so a cache hit never hands a caller an
    :class:`ScfResult` labeled with a *different* molecule's name (the name
    propagates into ``MolecularHamiltonian.name`` and report rows).
    """
    return (
        molecule.name,
        molecule.charge,
        tuple((atom.symbol, atom.position) for atom in molecule.atoms),
    )


#: Memoized SCF solutions keyed on (molecule fingerprint, solver settings).
#: Bounded: each entry holds the full n^4 ERI tensor, so geometry sweeps
#: (e.g. dissociation curves) must not accumulate results without limit.
_SCF_CACHE: Dict[Tuple, "ScfResult"] = {}
_SCF_CACHE_MAX_ENTRIES = 32


def clear_scf_cache() -> None:
    """Drop every memoized :func:`run_rhf` solution."""
    _SCF_CACHE.clear()


class ScfNotConvergedError(RuntimeError):
    """The SCF iteration exhausted ``max_iterations`` without converging.

    Carries the best-so-far solution as :attr:`result` so diagnostics (energy
    trajectory, final density) stay reachable; pass
    ``allow_unconverged=True`` to :func:`run_rhf` to receive that partial
    :class:`ScfResult` (``converged=False``) instead of this error.
    """

    def __init__(self, result: "ScfResult"):
        super().__init__(
            f"SCF for {result.molecule.name!r} did not converge in "
            f"{result.n_iterations} iterations (energy {result.energy:.10f} Ha); "
            "raise max_iterations, add damping, or pass allow_unconverged=True "
            "to accept the partial solution"
        )
        self.result = result


@dataclass
class ScfResult:
    """Converged restricted Hartree-Fock solution."""

    molecule: Molecule
    basis: List[BasisFunction]
    energy: float
    orbital_energies: np.ndarray
    orbital_coefficients: np.ndarray
    density_matrix: np.ndarray
    core_hamiltonian: np.ndarray
    overlap: np.ndarray
    electron_repulsion: np.ndarray
    n_iterations: int
    converged: bool
    #: Per-result memo used by ``build_molecular_hamiltonian`` (keyed on the
    #: active-space specification); not part of the solution itself.
    _hamiltonian_cache: Dict[Tuple, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_orbitals(self) -> int:
        """Number of spatial molecular orbitals."""
        return self.orbital_coefficients.shape[1]

    @property
    def n_occupied(self) -> int:
        """Number of doubly occupied spatial orbitals."""
        return self.molecule.n_electrons // 2

    @property
    def electronic_energy(self) -> float:
        """HF energy without the nuclear repulsion constant."""
        return self.energy - self.molecule.nuclear_repulsion


def _build_fock_matrix(
    core: np.ndarray, density: np.ndarray, eri: np.ndarray
) -> np.ndarray:
    """Fock matrix F = H_core + J - K/2 for a closed-shell density."""
    coulomb = np.einsum("pqrs,rs->pq", eri, density)
    exchange = np.einsum("prqs,rs->pq", eri, density)
    return core + coulomb - 0.5 * exchange


def run_rhf(
    molecule: Molecule,
    basis: Optional[Sequence[BasisFunction]] = None,
    max_iterations: int = 100,
    convergence: float = 1e-8,
    damping: float = 0.0,
    use_cache: bool = True,
    allow_unconverged: bool = False,
) -> ScfResult:
    """Solve the restricted Hartree-Fock equations for a closed-shell molecule.

    Parameters
    ----------
    molecule:
        The molecule; must have an even number of electrons.
    basis:
        Basis functions; defaults to STO-3G.
    max_iterations:
        SCF iteration cap.
    convergence:
        Convergence threshold on both the energy change and the density change.
    damping:
        Optional linear mixing of consecutive density matrices in [0, 1).
    use_cache:
        Memoize the solution per ``(molecule geometry/charge, solver
        settings)`` so benchmark sweeps over ansatz sizes do not re-run SCF.
        Cache hits return the *same* :class:`ScfResult` object — treat it as
        read-only, or pass ``use_cache=False`` (or call
        :func:`clear_scf_cache`) for a fresh solve.  Only the default STO-3G
        basis path is cached; an explicit ``basis`` always recomputes.
    allow_unconverged:
        By default an unconverged SCF raises :class:`ScfNotConvergedError` —
        a silently unconverged reference poisons every downstream energy.
        Pass True to receive the partial best-so-far :class:`ScfResult`
        (``converged=False``) instead, e.g. to inspect the trajectory or seed
        a retry with damping.

    Raises
    ------
    ScfNotConvergedError
        When the iteration cap is exhausted before convergence and
        ``allow_unconverged`` is False.  The partial solution is attached as
        ``.result``.
    """
    if molecule.n_electrons % 2 != 0:
        raise ValueError("restricted HF requires an even number of electrons")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    faults.fire("scf", molecule=molecule.name)
    cache_key = None
    if use_cache and basis is None:
        cache_key = (
            molecule_fingerprint(molecule), max_iterations, convergence, damping
        )
        cached = _SCF_CACHE.get(cache_key)
        if cached is not None:
            _SCF_HITS.inc()
            if not cached.converged and not allow_unconverged:
                raise ScfNotConvergedError(cached)
            return cached
    _SCF_MISSES.inc()
    integrals_before = integral_cache_stats()
    with get_tracer().span("chemistry.scf", molecule=molecule.name) as scf_span:
        result = _solve_rhf(molecule, basis, max_iterations, convergence, damping)
        scf_span.set_attribute("n_iterations", result.n_iterations)
        scf_span.set_attribute("converged", result.converged)
        integrals_after = integral_cache_stats()
        for key in ("hermite_expansion", "shell_pair"):
            for event in ("hits", "misses"):
                name = f"{key}.{event}"
                delta = integrals_after[name] - integrals_before[name]
                if delta:
                    scf_span.set_attribute(f"integrals.{name}", delta)
        # How many unique ERI quartets shared how many Hermite-Coulomb tables.
        for name in ("eri.quartets", "eri.coulomb_tables"):
            scf_span.set_attribute(name, integrals_after[name] - integrals_before[name])
    if cache_key is not None:
        # Cached regardless of convergence: the partial solution is the
        # deterministic outcome of these settings, so a retry with identical
        # settings should not silently re-run the whole iteration.
        while len(_SCF_CACHE) >= _SCF_CACHE_MAX_ENTRIES:
            _SCF_CACHE.pop(next(iter(_SCF_CACHE)))  # FIFO eviction
        _SCF_CACHE[cache_key] = result
    if not result.converged and not allow_unconverged:
        raise ScfNotConvergedError(result)
    return result


def _solve_rhf(
    molecule: Molecule,
    basis: Optional[Sequence[BasisFunction]],
    max_iterations: int,
    convergence: float,
    damping: float,
) -> "ScfResult":
    """The actual SCF iteration (cache handling and tracing live in run_rhf)."""
    nuclear_repulsion = molecule.nuclear_repulsion  # rejects coincident atoms up front
    basis = list(basis) if basis is not None else build_sto3g_basis(molecule)
    n_occupied = molecule.n_electrons // 2
    if n_occupied > len(basis):
        raise ValueError("not enough basis functions for the electron count")

    overlap = build_overlap_matrix(basis)
    core = build_core_hamiltonian(basis, molecule)
    eri = build_electron_repulsion_tensor(basis)

    density = np.zeros_like(overlap)
    energy = 0.0
    converged = False
    orbital_energies = np.zeros(len(basis))
    coefficients = np.zeros_like(overlap)

    for iteration in range(1, max_iterations + 1):
        fock = _build_fock_matrix(core, density, eri)
        orbital_energies, coefficients = eigh(fock, overlap)
        occupied = coefficients[:, :n_occupied]
        new_density = 2.0 * occupied @ occupied.T
        if damping > 0.0 and iteration > 1:
            new_density = (1.0 - damping) * new_density + damping * density

        electronic_energy = 0.5 * np.sum(new_density * (core + fock))
        new_energy = electronic_energy + nuclear_repulsion

        density_change = np.max(np.abs(new_density - density))
        energy_change = abs(new_energy - energy)
        density, energy = new_density, new_energy
        if iteration > 1 and energy_change < convergence and density_change < convergence:
            converged = True
            break

    # Recompute the energy consistently with the final density.
    fock = _build_fock_matrix(core, density, eri)
    electronic_energy = 0.5 * np.sum(density * (core + fock))
    energy = electronic_energy + nuclear_repulsion

    result = ScfResult(
        molecule=molecule,
        basis=list(basis),
        energy=float(energy),
        orbital_energies=orbital_energies,
        orbital_coefficients=coefficients,
        density_matrix=density,
        core_hamiltonian=core,
        overlap=overlap,
        electron_repulsion=eri,
        n_iterations=iteration,
        converged=converged,
    )
    return result
