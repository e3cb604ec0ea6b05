"""Shared fixtures for the benchmark harnesses.

Hartree-Fock solutions and HMP2 term lists are computed once per session and
cached, so individual benchmarks measure only the compilation / simulation
stage they target.  ``tests/`` goes on the import path, so the harnesses
import the test tree's oracle modules (``operator_oracle``) as the tests do.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.vqe import hmp2_ranked_terms


BENCHMARKS_DIR = Path(__file__).parent
TESTS_DIR = str(BENCHMARKS_DIR.parent / "tests")
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as slow (the tier-2 marker split).

    Tier-1 unit tests run with ``pytest -m "not slow"`` (or ``pytest tests``);
    the full suite including these harnesses runs with a plain ``pytest``.
    The hook sees the whole session's items, so filter to this directory.
    """
    for item in items:
        if BENCHMARKS_DIR in Path(item.fspath).parents:
            item.add_marker(pytest.mark.slow)

#: Frozen-core settings per molecule (H2 has no core to freeze).
FROZEN_CORE = {"H2": 0, "LiH": 1, "HF": 1, "BeH2": 1, "H2O": 1, "NH3": 1}


@pytest.fixture(scope="session")
def molecule_data():
    """Factory returning (hamiltonian, ranked_terms) per molecule, cached."""
    cache = {}

    def build(name: str, n_active_spatial_orbitals=None):
        key = (name, n_active_spatial_orbitals)
        if key not in cache:
            scf = run_rhf(make_molecule(name))
            hamiltonian = build_molecular_hamiltonian(
                scf,
                n_frozen_spatial_orbitals=FROZEN_CORE[name],
                n_active_spatial_orbitals=n_active_spatial_orbitals,
            )
            cache[key] = (hamiltonian, hmp2_ranked_terms(hamiltonian))
        return cache[key]

    return build
