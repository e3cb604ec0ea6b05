"""Sort pins on Table-I cells: the ordered, targeted rotation sequence and CNOTs.

The benchmark's chemistry (one frozen spatial orbital, HMP2 term order)
compiled by the advanced backend.  Each pin holds the SHA-256 of an ordered
``(Pauli label, angle, target)`` sequence plus its cost, twice:

* the GTSP result as :func:`repro.core.advanced_sort` returns it, with its
  objective (CNOTs, or the routed estimate under a topology);
* the sort stage's final sequence, with the backend's CNOT total.

The first is needed because on the larger cells the greedy construction
beats the GTSP and the stage keeps it, so the final sequence alone would not
see the genetic algorithm.  A change to the GA, its cluster optimization,
the weakest-edge cut or the rng stream they share fails here even when the
counts happen to survive.
"""

import hashlib
import json

import pytest

import repro.core.pipeline as pipeline
from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import advanced_sort
from repro.hardware import Topology
from repro.vqe import select_ansatz_terms

#: (molecule, n_terms, config seed, topology) ->
#: (GTSP sequence sha256, GTSP objective, final sequence sha256, CNOTs).
PINS = {
    ("LiH", 20, 0, "all-to-all"): (
        "30830e007865aa0c42e578ef05e9f393792b3b7b95b417a2e9fe20028622c511",
        46,
        "30830e007865aa0c42e578ef05e9f393792b3b7b95b417a2e9fe20028622c511",
        110,
    ),
    ("BeH2", 30, 0, "all-to-all"): (
        "3c16ab17a77beec79555f7c0f23aabb4e010b02da3ef6f1168575ed7e301e8a9",
        462,
        "06288f4a998a7ea444c4ba52cf7f4924a378cbf3cc4b921bf75a78e077432c6e",
        193,
    ),
    ("NH3", 30, 0, "all-to-all"): (
        "30a1f046003b08757071223906f786fb541b60316c0ca82d9439a7bf1d1741c3",
        897,
        "8da19b5af59fc859778ebf4c88d6d09165f31a980e1b6bcef834b7ea0052088d",
        298,
    ),
    ("NH3", 30, 1, "all-to-all"): (
        "1fb9bf2492163b021e5082aa895a6922da755af51a9a9f8b2112b0c5f262b564",
        854,
        "07dd206ecdf678a1c6811f6063504b93dcc6511f54bf7c4adefb35b10c99bcae",
        296,
    ),
    ("H2O", 20, 0, "line"): (
        "f3fec26c3ca9764cdd33e671c81a0d7267990de10dd4907c6bd1e2a574b45008",
        4441,
        "318eb483fcbd909df9d3729237a5523aad43fa014953afce4967fa02b22ab7b9",
        336,
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
def test_sort_is_pinned(cell, monkeypatch):
    gtsp_digest, gtsp_objective, digest, cnots = PINS[cell]
    sorts = []

    def recording(*args, **kwargs):
        sorting = advanced_sort(*args, **kwargs)
        sorts.append(sorting)
        return sorting

    monkeypatch.setattr(pipeline, "advanced_sort", recording)
    result = compile_cell(*cell)

    (gtsp,) = sorts
    assert sequence_digest(gtsp.ordered_rotations) == gtsp_digest
    assert gtsp.objective() == gtsp_objective
    assert sequence_digest(result.details.sorting.ordered_rotations) == digest
    assert result.cnot_count == cnots
