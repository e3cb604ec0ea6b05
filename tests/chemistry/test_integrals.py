"""Unit tests for molecular integrals (McMurchie-Davidson)."""

import math

import numpy as np
import pytest

from repro.chemistry import build_sto3g_basis, make_molecule
from repro.chemistry.basis import BasisFunction, Molecule, Atom
from repro.chemistry.integrals import (
    build_electron_repulsion_tensor,
    build_kinetic_matrix,
    build_nuclear_matrix,
    build_overlap_matrix,
    electron_repulsion,
    hermite_expansion,
    kinetic,
    overlap,
)
from scalar_integrals import boys_function


def s_function(exponent, center=(0.0, 0.0, 0.0)):
    return BasisFunction(center=center, lmn=(0, 0, 0), exponents=(exponent,), coefficients=(1.0,))


class TestBoysFunction:
    def test_zero_argument(self):
        # F_n(0) = 1 / (2n + 1).
        for n in range(4):
            assert np.isclose(boys_function(n, 0.0), 1.0 / (2 * n + 1))

    def test_large_argument_asymptotics(self):
        # F_0(x) -> sqrt(pi / (4x)) for large x.
        x = 40.0
        assert np.isclose(boys_function(0, x), math.sqrt(math.pi / (4 * x)), rtol=1e-6)

    def test_monotone_decreasing_in_x(self):
        values = [boys_function(1, x) for x in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestHermiteExpansion:
    def test_zero_order_is_gaussian_prefactor(self):
        a, b, q = 0.9, 0.4, 0.7
        expected = math.exp(-a * b / (a + b) * q * q)
        assert np.isclose(hermite_expansion(0, 0, 0, q, a, b), expected)

    def test_out_of_range_is_zero(self):
        assert hermite_expansion(1, 1, 3, 0.5, 1.0, 1.0) == 0.0
        assert hermite_expansion(0, 0, -1, 0.5, 1.0, 1.0) == 0.0


class TestPrimitiveIntegrals:
    def test_normalized_s_overlap_is_one(self):
        f = s_function(1.3)
        assert np.isclose(overlap(f, f), 1.0)

    def test_overlap_decays_with_distance(self):
        f0 = s_function(1.0)
        values = [overlap(f0, s_function(1.0, (0, 0, d))) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_kinetic_energy_of_normalized_gaussian(self):
        # For a normalized s Gaussian with exponent a: <T> = 3a/2.
        a = 0.8
        f = s_function(a)
        assert np.isclose(kinetic(f, f), 1.5 * a)

    def test_nuclear_attraction_of_gaussian_at_nucleus(self):
        # <V> for a normalized s Gaussian centred on a unit charge: -2 sqrt(a / pi) * ... = -2*sqrt(2a/pi).
        a = 1.1
        f = s_function(a)
        molecule = Molecule(atoms=[Atom("H", (0.0, 0.0, 0.0))])
        value = build_nuclear_matrix([f], molecule)[0, 0]
        assert np.isclose(value, -2.0 * math.sqrt(2.0 * a / math.pi))

    def test_self_repulsion_positive_and_scales_as_sqrt_exponent(self):
        # (aa|aa) of a normalized s Gaussian is positive and scales as sqrt(a)
        # (lengths scale as 1/sqrt(a), so the Coulomb energy scales as sqrt(a)).
        a = 0.7
        value_a = electron_repulsion(*([s_function(a)] * 4))
        value_2a = electron_repulsion(*([s_function(2 * a)] * 4))
        assert value_a > 0
        assert np.isclose(value_2a / value_a, math.sqrt(2.0), rtol=1e-8)

    def test_repulsion_between_distant_charges_approaches_coulomb(self):
        # Two tight normalized s Gaussians far apart repel like point charges 1/R.
        tight = 6.0
        distance = 12.0
        f1 = s_function(tight)
        f2 = s_function(tight, (0.0, 0.0, distance))
        value = electron_repulsion(f1, f1, f2, f2)
        assert np.isclose(value, 1.0 / distance, rtol=1e-4)


class TestIntegralMatrices:
    def test_overlap_matrix_properties(self):
        basis = build_sto3g_basis(make_molecule("LiH"))
        s = build_overlap_matrix(basis)
        assert np.allclose(s, s.T)
        assert np.allclose(np.diag(s), 1.0)
        eigenvalues = np.linalg.eigvalsh(s)
        assert np.all(eigenvalues > 0)

    def test_kinetic_matrix_positive_definite(self):
        basis = build_sto3g_basis(make_molecule("H2"))
        t = build_kinetic_matrix(basis)
        assert np.allclose(t, t.T)
        assert np.all(np.linalg.eigvalsh(t) > 0)

    def test_nuclear_matrix_negative_diagonal(self):
        molecule = make_molecule("H2")
        basis = build_sto3g_basis(molecule)
        v = build_nuclear_matrix(basis, molecule)
        assert np.all(np.diag(v) < 0)

    def test_eri_tensor_symmetries(self):
        basis = build_sto3g_basis(make_molecule("H2"))
        eri = build_electron_repulsion_tensor(basis)
        assert np.allclose(eri, eri.transpose(1, 0, 2, 3))
        assert np.allclose(eri, eri.transpose(0, 1, 3, 2))
        assert np.allclose(eri, eri.transpose(2, 3, 0, 1))
        assert np.all(np.einsum("iijj->ij", eri) > 0)
