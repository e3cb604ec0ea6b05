"""Hartree-Fock validation against literature STO-3G energies."""

import numpy as np
import pytest

from repro.chemistry import (
    ScfNotConvergedError,
    build_molecular_hamiltonian,
    clear_scf_cache,
    make_molecule,
    run_rhf,
)
from repro.chemistry.basis import Atom, Molecule
from repro.chemistry.integrals import integral_cache_stats


class TestInvalidInput:
    def test_coincident_atoms_raise_value_error_before_integrals(self):
        molecule = Molecule(atoms=[Atom("H", (0, 0, 0)), Atom("H", (0, 0, 0))], name="H2-collapsed")
        built = integral_cache_stats()["shell_pair.misses"]
        with pytest.raises(ValueError, match=r"atoms 0 \(H\) and 1 \(H\)"):
            run_rhf(molecule, use_cache=False)
        assert integral_cache_stats()["shell_pair.misses"] == built


class TestRhfEnergies:
    """Total RHF/STO-3G energies compared to standard literature values (Hartree)."""

    @pytest.mark.parametrize(
        "name, reference, tolerance",
        [
            ("H2", -1.1167, 2e-3),
            ("LiH", -7.8620, 5e-3),
            ("HF", -98.5708, 1e-2),
            ("H2O", -74.9629, 1e-2),
            ("BeH2", -15.5603, 1e-2),
        ],
    )
    def test_total_energy(self, name, reference, tolerance):
        result = run_rhf(make_molecule(name))
        assert result.converged
        assert abs(result.energy - reference) < tolerance

    def test_ammonia_energy(self):
        result = run_rhf(make_molecule("NH3"))
        assert result.converged
        assert abs(result.energy - (-55.454)) < 2e-2


class TestScfProperties:
    def test_orbital_count_and_occupation(self):
        result = run_rhf(make_molecule("H2O"))
        assert result.n_orbitals == 7
        assert result.n_occupied == 5

    def test_electronic_energy_excludes_nuclear_repulsion(self):
        result = run_rhf(make_molecule("H2"))
        assert np.isclose(
            result.electronic_energy + result.molecule.nuclear_repulsion, result.energy
        )

    def test_density_matrix_trace_counts_electrons(self):
        result = run_rhf(make_molecule("LiH"))
        assert np.isclose(np.trace(result.density_matrix @ result.overlap), 4.0, atol=1e-6)

    def test_orbital_energies_sorted(self):
        result = run_rhf(make_molecule("H2O"))
        assert np.all(np.diff(result.orbital_energies) >= -1e-10)

    def test_aufbau_gap(self):
        result = run_rhf(make_molecule("H2"))
        homo = result.orbital_energies[result.n_occupied - 1]
        lumo = result.orbital_energies[result.n_occupied]
        assert lumo > homo

    def test_orbitals_orthonormal_in_overlap_metric(self):
        result = run_rhf(make_molecule("LiH"))
        c, s = result.orbital_coefficients, result.overlap
        assert np.allclose(c.T @ s @ c, np.eye(result.n_orbitals), atol=1e-8)


class TestValidation:
    def test_odd_electron_count_rejected(self):
        cation = Molecule.from_angstrom(
            [("H", (0, 0, 0)), ("H", (0, 0, 0.74))], charge=1
        )
        with pytest.raises(ValueError):
            run_rhf(cation)

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            run_rhf(make_molecule("H2"), damping=1.5)

    def test_damping_converges_to_same_energy(self):
        plain = run_rhf(make_molecule("LiH"))
        damped = run_rhf(make_molecule("LiH"), damping=0.3)
        assert np.isclose(plain.energy, damped.energy, atol=1e-6)


class TestConvergenceGuard:
    """Unconverged SCF is a typed error, never a silent bad reference."""

    def test_unconverged_scf_raises_typed_error(self):
        with pytest.raises(ScfNotConvergedError) as info:
            run_rhf(make_molecule("H2"), max_iterations=1, use_cache=False)
        # The partial solution stays reachable for diagnostics.
        assert info.value.result.converged is False
        assert isinstance(info.value.result.energy, float)

    def test_error_message_names_the_escape_hatch(self):
        with pytest.raises(ScfNotConvergedError, match="allow_unconverged"):
            run_rhf(make_molecule("H2"), max_iterations=1, use_cache=False)

    def test_allow_unconverged_returns_the_partial_result(self):
        result = run_rhf(
            make_molecule("H2"),
            max_iterations=1,
            use_cache=False,
            allow_unconverged=True,
        )
        assert result.converged is False
        assert np.isfinite(result.energy)

    def test_cache_hit_of_an_unconverged_solve_still_raises(self):
        clear_scf_cache()
        try:
            partial = run_rhf(
                make_molecule("H2"), max_iterations=1, allow_unconverged=True
            )
            assert not partial.converged
            # Identical settings hit the cache; the guard applies either way.
            with pytest.raises(ScfNotConvergedError):
                run_rhf(make_molecule("H2"), max_iterations=1)
        finally:
            clear_scf_cache()

    def test_hamiltonian_build_audits_convergence(self):
        partial = run_rhf(
            make_molecule("H2"),
            max_iterations=1,
            use_cache=False,
            allow_unconverged=True,
        )
        with pytest.raises(ScfNotConvergedError):
            build_molecular_hamiltonian(partial, use_cache=False)
        hamiltonian = build_molecular_hamiltonian(
            partial, use_cache=False, allow_unconverged=True
        )
        assert hamiltonian.n_spin_orbitals == 4

    def test_converged_solve_unaffected_by_the_flag(self):
        plain = run_rhf(make_molecule("H2"), use_cache=False)
        tolerant = run_rhf(make_molecule("H2"), use_cache=False, allow_unconverged=True)
        assert plain.converged and tolerant.converged
        assert np.isclose(plain.energy, tolerant.energy, atol=1e-10)
