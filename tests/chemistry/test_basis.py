"""Unit tests for the STO-3G basis and molecule containers."""

import math

import numpy as np
import pytest

from repro.chemistry import ANGSTROM_TO_BOHR, Atom, Molecule, build_sto3g_basis, make_molecule
from repro.chemistry.basis import BasisFunction, double_factorial, primitive_normalization
from repro.chemistry.integrals import overlap


class TestHelpers:
    def test_double_factorial(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48

    def test_primitive_normalization_s(self):
        # For an s Gaussian N = (2a/pi)^(3/4).
        a = 0.7
        assert np.isclose(primitive_normalization(a, (0, 0, 0)), (2 * a / math.pi) ** 0.75)


class TestAtomsAndMolecules:
    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom("Xx", (0, 0, 0))

    def test_atomic_number(self):
        assert Atom("O", (0, 0, 0)).atomic_number == 8

    def test_from_angstrom_converts_to_bohr(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 1.0))])
        assert np.isclose(molecule.atoms[1].position[2], ANGSTROM_TO_BOHR)

    def test_electron_count_and_charge(self):
        water = make_molecule("H2O")
        assert water.n_electrons == 10
        cation = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))], charge=1)
        assert cation.n_electrons == 1

    def test_nuclear_repulsion_h2(self):
        # Two protons at 1.4 Bohr: E_nn = 1/1.4.
        molecule = Molecule(atoms=[Atom("H", (0, 0, 0)), Atom("H", (0, 0, 1.4))])
        assert np.isclose(molecule.nuclear_repulsion, 1.0 / 1.4)

    def test_coincident_atoms_are_rejected_by_name(self):
        atoms = [Atom("Li", (0, 0, 0)), Atom("H", (0, 0, 3.0)), Atom("H", (0, 0, 3.0))]
        molecule = Molecule(atoms=atoms)
        with pytest.raises(ValueError, match=r"atoms 1 \(H\) and 2 \(H\)"):
            molecule.nuclear_repulsion

    def test_unknown_molecule_name(self):
        with pytest.raises(ValueError):
            make_molecule("C60")

    def test_registry_molecules_have_expected_sizes(self):
        assert len(make_molecule("NH3").atoms) == 4
        assert len(make_molecule("BeH2").atoms) == 3


class TestBasisConstruction:
    def test_hydrogen_has_one_function(self):
        basis = build_sto3g_basis(make_molecule("H2"))
        assert len(basis) == 2
        assert all(f.angular_momentum == 0 for f in basis)

    def test_water_has_seven_functions(self):
        basis = build_sto3g_basis(make_molecule("H2O"))
        assert len(basis) == 7
        # O: 1s, 2s, 2px, 2py, 2pz; H, H: 1s each.
        assert sum(1 for f in basis if f.angular_momentum == 1) == 3

    def test_contracted_functions_are_normalized(self):
        basis = build_sto3g_basis(make_molecule("LiH"))
        for function in basis:
            assert np.isclose(overlap(function, function), 1.0, atol=1e-10)

    def test_basis_function_validation(self):
        with pytest.raises(ValueError):
            BasisFunction(center=(0, 0, 0), lmn=(0, 0, 0), exponents=(1.0,), coefficients=(1.0, 2.0))

    def test_ammonia_geometry_angles(self):
        """The generated NH3 geometry reproduces the requested bond angle."""
        molecule = make_molecule("NH3")
        nitrogen = np.array(molecule.atoms[0].position)
        h1 = np.array(molecule.atoms[1].position) - nitrogen
        h2 = np.array(molecule.atoms[2].position) - nitrogen
        angle = math.degrees(
            math.acos(np.dot(h1, h2) / (np.linalg.norm(h1) * np.linalg.norm(h2)))
        )
        assert abs(angle - 106.67) < 0.1
        assert np.isclose(np.linalg.norm(h1) / ANGSTROM_TO_BOHR, 1.0116, atol=1e-3)
