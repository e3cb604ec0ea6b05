"""Γ-search pins on three cells: the chosen Γ, its search cost, the CNOTs, the walks.

H2O/20 and NH3/30 of Table I, and BeH2/12 of the service workload, with the
benchmark's chemistry (one frozen spatial orbital, HMP2 term order) at
config seed 0.  The search result is captured
as the pipeline's ``gamma_search`` stage returns it, so the pins hold the
annealing walk itself, not only the final count: the SHA-256 of the Γ bytes
(uint8), ``GammaSearchResult.cnot_count`` and the advanced backend's total.
A Γ-search or sorting change that moves any of them fails here.  The
stage's ``GreedySortingCost`` is pinned too: ``n_walks``, the distinct
label-ordered string sets it walked, moves with a change of its memo key.
On H2O/20 and NH3/30 every distinct Γ gives a new string set; BeH2/12's
32 distinct Γ give 11.
"""

import hashlib

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import search_block_diagonal_gamma
from repro.vqe import select_ansatz_terms

#: (molecule, n_terms) -> (sha256 of the Γ bytes, search cost, final CNOTs,
#: greedy walks).
PINS = {
    ("BeH2", 12): (
        "a33d653cfc0c2f6951387e9329faf314c7ca6b33eead544e019413352b1dff11",
        45.0,
        59,
        11,
    ),
    ("H2O", 20): (
        "3b01dcf7f72e44938662ed870e54c45de2a913c2ea55c96cc38c63527d8e7154",
        151.0,
        175,
        35,
    ),
    ("NH3", 30): (
        "63a438f243b5cbb5ac9316fe23335d8ee2734374b3f6895f07c9978879c92632",
        260.0,
        270,
        34,
    ),
}


@pytest.mark.parametrize("cell", sorted(PINS), ids=lambda cell: f"{cell[0]}-{cell[1]}")
def test_gamma_search_is_pinned(cell, monkeypatch):
    molecule, n_terms = cell
    digest, search_cost, cnots, walks = PINS[cell]
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
    )
    terms = tuple(select_ansatz_terms(hamiltonian, n_terms))

    searches = []

    def recording(*args, **kwargs):
        result = search_block_diagonal_gamma(*args, **kwargs)
        searches.append((result, kwargs["cost_function"]))
        return result

    monkeypatch.setattr(pipeline, "search_block_diagonal_gamma", recording)
    result = get_backend("advanced").compile(
        CompileRequest(
            terms=terms,
            n_qubits=hamiltonian.n_spin_orbitals,
            config=CompilerConfig(seed=0),
        )
    )

    ((search, cost),) = searches
    assert search.gamma.dtype == np.uint8
    assert hashlib.sha256(search.gamma.tobytes()).hexdigest() == digest
    assert search.cnot_count == search_cost
    assert np.array_equal(result.details.gamma, search.gamma)
    assert result.cnot_count == cnots
    assert cost.n_walks == walks
