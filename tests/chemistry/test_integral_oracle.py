"""Whole-molecule oracle: the table kernels against the scalar reference.

Every matrix and tensor the SCF consumes must be byte-identical to one
assembled from the scalar ``primitive_*`` functions and
:func:`electron_repulsion_scalar`, in the same contraction order.  HMP2
ranks symmetry-degenerate amplitudes, so a last-ulp change here can reorder
terms and move CNOT counts downstream.
"""

import numpy as np
import pytest

from repro.chemistry import build_sto3g_basis, clear_integral_caches, make_molecule
from repro.chemistry.integrals import (
    build_core_hamiltonian,
    build_electron_repulsion_tensor,
    build_nuclear_matrix,
    build_overlap_matrix,
    electron_repulsion,
    electron_repulsion_scalar,
    nuclear_attraction,
    primitive_kinetic,
    primitive_nuclear,
    primitive_overlap,
)

MOLECULES = ("H2", "LiH", "NH3")


def unique_quartets(n):
    """``(i, j, k, l)`` with ``j <= i``, ``l <= k`` and ``ij >= kl``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    return [bra + ket for ij, bra in enumerate(pairs) for ket in pairs[: ij + 1]]


def scalar_eri_tensor(basis):
    n = len(basis)
    tensor = np.zeros((n, n, n, n))
    for i, j, k, l in unique_quartets(n):
        value = electron_repulsion_scalar(basis[i], basis[j], basis[k], basis[l])
        for a, b, c, d in (
            (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
        ):
            tensor[a, b, c, d] = value
    return tensor


def scalar_pair_matrix(basis, element):
    n = len(basis)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            matrix[i, j] = matrix[j, i] = element(basis[i], basis[j])
    return matrix


def contracted(fa, fb, primitive, *extra):
    total = 0.0
    for exp_a, coeff_a in zip(fa.exponents, fa.normalized_coefficients):
        for exp_b, coeff_b in zip(fb.exponents, fb.normalized_coefficients):
            total += coeff_a * coeff_b * primitive(
                exp_a, fa.lmn, fa.center, exp_b, fb.lmn, fb.center, *extra
            )
    return total


def scalar_nuclear(fa, fb, molecule):
    total = 0.0
    for atom in molecule.atoms:
        total -= atom.atomic_number * contracted(fa, fb, primitive_nuclear, atom.position)
    return total


@pytest.fixture(scope="module", params=MOLECULES)
def system(request):
    molecule = make_molecule(request.param)
    return molecule, build_sto3g_basis(molecule)


@pytest.fixture(scope="module")
def eri_tensor(system):
    clear_integral_caches()
    return build_electron_repulsion_tensor(system[1])


def test_eri_tensor_bytes_match_scalar_reference(system, eri_tensor):
    assert eri_tensor.tobytes() == scalar_eri_tensor(system[1]).tobytes()


def test_single_quartet_equals_tensor_entry(system, eri_tensor):
    basis = system[1]
    for i, j, k, l in unique_quartets(len(basis)):
        assert electron_repulsion(basis[i], basis[j], basis[k], basis[l]) == eri_tensor[i, j, k, l]


def test_one_electron_matrices_match_scalar_reference(system):
    molecule, basis = system
    clear_integral_caches()
    kinetic = scalar_pair_matrix(basis, lambda a, b: contracted(a, b, primitive_kinetic))
    nuclear = scalar_pair_matrix(basis, lambda a, b: scalar_nuclear(a, b, molecule))
    overlap = scalar_pair_matrix(basis, lambda a, b: contracted(a, b, primitive_overlap))
    assert build_nuclear_matrix(basis, molecule).tobytes() == nuclear.tobytes()
    assert build_core_hamiltonian(basis, molecule).tobytes() == (kinetic + nuclear).tobytes()
    assert build_overlap_matrix(basis).tobytes() == overlap.tobytes()
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            assert nuclear_attraction(basis[i], basis[j], molecule) == nuclear[i, j]
