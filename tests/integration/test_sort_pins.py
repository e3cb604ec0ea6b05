"""Sort pins on Table-I cells: the ordered, targeted rotation sequence and CNOTs.

The benchmark's chemistry (one frozen spatial orbital, HMP2 term order)
compiled by the advanced backend.  Each pin holds the SHA-256 of the sort
stage's ordered ``(Pauli label, angle, target)`` sequence, the sort's
objective (CNOTs, or the routed estimate under a topology) and the
backend's CNOT total.  The stage returns the GTSP search's own result, so
a change to the seed tours, the cluster DP, the Or-opt pass or their
tie-breaking fails here even when the counts happen to survive.
"""

import hashlib
import json

import pytest

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.hardware import Topology
from repro.vqe import select_ansatz_terms

#: (molecule, n_terms, config seed, topology) ->
#: (sequence sha256, sort objective, CNOTs).
PINS = {
    ("LiH", 20, 0, "all-to-all"): (
        "00dcb4bd8ffb4bac75c4d44730d2ca82239ada5f33dea715bf22a6090590c921",
        42,
        106,
    ),
    ("BeH2", 30, 0, "all-to-all"): (
        "8037da2a8f73954e64e5c50080793a2198456bf3d329658967f9e64225fc1c3d",
        173,
        189,
    ),
    ("NH3", 30, 0, "all-to-all"): (
        "592ea53a6031948c8a331a9ddb0c4ad1d92fa23eaf4d4ef623c9d996b38a67c5",
        232,
        270,
    ),
    ("NH3", 30, 1, "all-to-all"): (
        "0ebead1e015a2e9cc72fbb2ecc944746818aa3c9652f751e2f02aaa6e0fc66bc",
        231,
        269,
    ),
    ("H2O", 20, 0, "line"): (
        "bcaf12f38d0f381d18c013a7bd3322bdc6a7527997a1869760302291088747fa",
        4128,
        220,
    ),
}


def sequence_digest(ordered_rotations) -> str:
    """SHA-256 of the ordered ``(label, repr(angle), target)`` triples."""
    sequence = [
        [rotation.string.to_label(), repr(float(rotation.angle)), int(target)]
        for rotation, target in ordered_rotations
    ]
    return hashlib.sha256(json.dumps(sequence).encode()).hexdigest()


def compile_cell(molecule, n_terms, seed, topology):
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
    )
    n_qubits = hamiltonian.n_spin_orbitals
    config = CompilerConfig(
        seed=seed,
        topology=Topology.line(n_qubits) if topology == "line" else None,
    )
    return get_backend("advanced").compile(
        CompileRequest(
            terms=tuple(select_ansatz_terms(hamiltonian, n_terms)),
            n_qubits=n_qubits,
            config=config,
        )
    )


@pytest.mark.parametrize(
    "cell", sorted(PINS), ids=lambda cell: "-".join(str(part) for part in cell)
)
def test_sort_is_pinned(cell):
    digest, objective, cnots = PINS[cell]
    result = compile_cell(*cell)
    sorting = result.details.sorting
    assert sequence_digest(sorting.ordered_rotations) == digest
    assert sorting.objective() == objective
    assert result.cnot_count == cnots
