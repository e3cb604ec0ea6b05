"""Dominance: the advanced backend never costs more CNOTs than the prior art.

Table-I cells with the benchmark's chemistry (one frozen spatial orbital,
HMP2 term order) at config seed 0.  Each cell compiles with all four
default backends; the advanced count must be at most the cheapest of the
baseline, Jordan-Wigner and Bravyi-Kitaev counts, and the advanced
fermionic circuit must implement its rotation sequence.  These four cells
lost to the baseline before the sort seeded its search with the term-block
order.  NH3/8 still loses (104 against the baseline's 100): the Γ search
scores candidates by the greedy walk only, which steers Γ away from what
the term-block order needs.
"""

import pytest

from repro.api import DEFAULT_BACKEND_NAMES, CompileRequest, CompilerConfig, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.verify import assert_implements_rotations
from repro.vqe import select_ansatz_terms

CELLS = [
    ("BeH2", 20),
    ("H2O", 20),
    ("H2O", 30),
    ("NH3", 30),
    pytest.param(
        "NH3", 8,
        marks=pytest.mark.xfail(
            strict=True, reason="Γ search scores by the greedy walk only (104 vs 100)"
        ),
    ),
]


@pytest.mark.parametrize("molecule,n_terms", CELLS)
def test_advanced_dominates_the_prior_art(molecule, n_terms):
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
    )
    request = CompileRequest(
        terms=tuple(select_ansatz_terms(hamiltonian, n_terms)),
        n_qubits=hamiltonian.n_spin_orbitals,
        config=CompilerConfig(seed=0),
    )
    counts = {name: get_backend(name).compile(request) for name in DEFAULT_BACKEND_NAMES}
    advanced = counts.pop("advanced")

    assert_implements_rotations(
        advanced.details.fermionic_circuit(),
        [
            (rotation.string, rotation.angle)
            for rotation, _ in advanced.details.sorting.ordered_rotations
        ],
    )
    assert advanced.cnot_count <= min(result.cnot_count for result in counts.values())
