"""Quantum chemistry substrate: STO-3G integrals, Hartree-Fock, Hamiltonians.

This subpackage replaces the PySCF/OpenFermion stack the paper's workflow
normally relies on:

* :mod:`~repro.chemistry.basis` — STO-3G basis data and molecular geometry
  containers;
* :mod:`~repro.chemistry.hermite` — Hermite expansion coefficients and the
  primitive overlap, shared by the basis normalization and the integrals;
* :mod:`~repro.chemistry.integrals` — McMurchie-Davidson molecular integrals;
* :mod:`~repro.chemistry.hartree_fock` — restricted Hartree-Fock SCF;
* :mod:`~repro.chemistry.hamiltonian` — spin-orbital second-quantized
  Hamiltonians with frozen-core active spaces;
* :mod:`~repro.chemistry.mp2` — MP2 amplitudes feeding the HMP2 term ordering;
* :mod:`~repro.chemistry.molecules` — the Table-I molecule geometries.
"""

from repro.chemistry.basis import (
    ANGSTROM_TO_BOHR,
    Atom,
    BasisFunction,
    Molecule,
    build_sto3g_basis,
)
from repro.chemistry.hamiltonian import (
    MolecularHamiltonian,
    build_molecular_hamiltonian,
    mo_one_body_integrals,
    mo_two_body_integrals,
    spin_orbital_integrals,
)
from repro.chemistry.hartree_fock import (
    ScfNotConvergedError,
    ScfResult,
    clear_scf_cache,
    molecule_fingerprint,
    run_rhf,
)
from repro.chemistry.integrals import (
    clear_integral_caches,
    shell_pair_data,
)
from repro.chemistry.molecules import (
    GEOMETRIES,
    ammonia_geometry,
    beh2_geometry,
    h2_geometry,
    hf_geometry,
    lih_geometry,
    make_molecule,
    water_geometry,
)
from repro.chemistry.mp2 import (
    DoubleExcitationAmplitude,
    mp2_amplitudes,
    mp2_energy_correction,
    ranked_double_excitations,
)

__all__ = [
    "ANGSTROM_TO_BOHR",
    "Atom",
    "BasisFunction",
    "Molecule",
    "build_sto3g_basis",
    "ScfNotConvergedError",
    "ScfResult",
    "run_rhf",
    "clear_scf_cache",
    "molecule_fingerprint",
    "clear_integral_caches",
    "shell_pair_data",
    "MolecularHamiltonian",
    "build_molecular_hamiltonian",
    "mo_one_body_integrals",
    "mo_two_body_integrals",
    "spin_orbital_integrals",
    "DoubleExcitationAmplitude",
    "mp2_amplitudes",
    "mp2_energy_correction",
    "ranked_double_excitations",
    "GEOMETRIES",
    "make_molecule",
    "h2_geometry",
    "lih_geometry",
    "hf_geometry",
    "beh2_geometry",
    "water_geometry",
    "ammonia_geometry",
]
