"""Whole-molecule oracle: the batched engine against the scalar reference.

Every matrix and tensor the SCF consumes must be byte-identical to one
assembled from the scalar ``primitive_*`` functions and
:func:`electron_repulsion_scalar`, in the same contraction order.  HMP2
ranks symmetry-degenerate amplitudes, so a last-ulp change here can reorder
terms and move CNOT counts downstream.

The inputs are every grid molecule, an NH3 with no two atoms alike (so no
deduplicated Boys argument or power can lean on a symmetric copy), and a
hand-built basis of 1-, 2- and 3-primitive s and p functions on shared
centres (non-uniform primitive grids, all-zero Hermite tables).
"""

import numpy as np
import pytest

from repro.chemistry import build_sto3g_basis, clear_integral_caches, make_molecule
from repro.chemistry.basis import Atom, BasisFunction, Molecule
from repro.chemistry.hermite import primitive_overlap
from repro.chemistry.integrals import (
    build_core_hamiltonian,
    build_electron_repulsion_tensor,
    build_kinetic_matrix,
    build_nuclear_matrix,
    build_overlap_matrix,
    electron_repulsion,
    nuclear_attraction,
)
from scalar_integrals import electron_repulsion_scalar, primitive_kinetic, primitive_nuclear


def sto3g(name):
    molecule = make_molecule(name)
    return molecule, build_sto3g_basis(molecule)


def displaced_ammonia():
    """NH3 with every atom moved off its symmetric site by a different amount."""
    offsets = ((0.031, -0.017, 0.009), (-0.044, 0.023, 0.058), (0.012, 0.067, -0.035),
               (-0.026, -0.048, 0.014))
    atoms = [
        Atom(atom.symbol, tuple(c + d for c, d in zip(atom.position, offset)))
        for atom, offset in zip(make_molecule("NH3").atoms, offsets)
    ]
    molecule = Molecule(atoms=atoms, name="NH3-displaced")
    return molecule, build_sto3g_basis(molecule)


def mixed_contractions():
    """s and p functions of 1, 2 and 3 primitives, several on each centre."""
    atoms = [
        Atom("Li", (0.0, 0.0, 0.0)), Atom("H", (0.4, -0.3, 1.5)), Atom("He", (-1.1, 0.7, -0.6))
    ]
    molecule = Molecule(atoms=atoms, name="mixed")
    li, h, he = (atom.position for atom in molecule.atoms)
    functions = [
        (li, (0, 0, 0), (16.1, 2.9, 0.79), (0.15, 0.53, 0.44)),
        (li, (0, 0, 0), (0.64,), (1.0,)),
        (li, (1, 0, 0), (0.64, 0.15), (0.16, 0.61)),
        (li, (0, 1, 0), (0.64, 0.15), (0.16, 0.61)),
        (li, (0, 0, 1), (0.048,), (1.0,)),
        (h, (0, 0, 0), (3.4, 0.62), (0.15, 0.54)),
        (h, (1, 0, 0), (1.1, 0.3, 0.09), (0.2, 0.5, 0.4)),
        (he, (0, 0, 0), (1.16,), (1.0,)),
    ]
    basis = [
        BasisFunction(center=center, lmn=lmn, exponents=exponents, coefficients=coefficients)
        for center, lmn, exponents, coefficients in functions
    ]
    return molecule, basis


SYSTEMS = {
    "H2": lambda: sto3g("H2"),
    "LiH": lambda: sto3g("LiH"),
    "BeH2": lambda: sto3g("BeH2"),
    "H2O": lambda: sto3g("H2O"),
    "NH3": lambda: sto3g("NH3"),
    "NH3-displaced": displaced_ammonia,
    "mixed-contractions": mixed_contractions,
}


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


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


@pytest.fixture(scope="module")
def reference(system):
    """The scalar S, T, V and ERI tensor of a system."""
    molecule, basis = system
    return {
        "overlap": scalar_pair_matrix(basis, lambda a, b: contracted(a, b, primitive_overlap)),
        "kinetic": scalar_pair_matrix(basis, lambda a, b: contracted(a, b, primitive_kinetic)),
        "nuclear": scalar_pair_matrix(basis, lambda a, b: scalar_nuclear(a, b, molecule)),
        "eri": scalar_eri_tensor(basis),
    }


@pytest.fixture(scope="module")
def eri_tensor(system):
    clear_integral_caches()
    return build_electron_repulsion_tensor(system[1])


def test_eri_tensor_bytes_match_scalar_reference(eri_tensor, reference):
    assert eri_tensor.tobytes() == reference["eri"].tobytes()


def test_single_quartet_equals_tensor_entry(system, eri_tensor):
    basis = system[1]
    for i, j, k, l in unique_quartets(len(basis)):
        assert electron_repulsion(basis[i], basis[j], basis[k], basis[l]) == eri_tensor[i, j, k, l]


def test_one_electron_matrices_match_scalar_reference(system, reference):
    molecule, basis = system
    clear_integral_caches()
    kinetic, nuclear = reference["kinetic"], reference["nuclear"]
    assert build_overlap_matrix(basis).tobytes() == reference["overlap"].tobytes()
    assert build_kinetic_matrix(basis).tobytes() == kinetic.tobytes()
    assert build_nuclear_matrix(basis, molecule).tobytes() == nuclear.tobytes()
    assert build_core_hamiltonian(basis, molecule).tobytes() == (kinetic + nuclear).tobytes()
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            assert nuclear_attraction(basis[i], basis[j], molecule) == nuclear[i, j]


def test_mixed_basis_has_zero_tables_and_uneven_grids():
    # Guards the input itself: the oracle above only covers these cases if
    # the basis really has them.
    _, basis = mixed_contractions()
    assert {len(function.exponents) for function in basis} == {1, 2, 3}
    s_core, p_x = basis[0], basis[2]
    assert s_core.center == p_x.center and contracted(s_core, p_x, primitive_overlap) == 0.0
