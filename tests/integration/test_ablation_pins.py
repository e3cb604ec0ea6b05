"""Ablation pins on two Table-I cells: each stage substitution's exact output.

LiH/20 and NH3/8 with the benchmark's chemistry (one frozen spatial orbital,
HMP2 term order) at ``CompilerConfig(seed=0)``.  Six variants of the advanced
pipeline run on each cell: the full flow, each of the four ablation stages
alone, and all four together.  Each pin holds the CNOT total, the per-segment
breakdown, the SHA-256 of the Γ bytes (uint8) and the SHA-256 of the ordered
``(Pauli label, angle, target)`` sequence.  The values were recorded when
the ablations were still config switches, so they also hold the stages to
the term order those switches produced.

Identity Γ beats the searched Γ on NH3/8 (99 against 104 CNOTs): that is the
known NH3/8 loss cell of ``test_dominance.py``, pinned here as it is.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.api import CompilerConfig
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import (
    AdvancedPipeline,
    fold_bosonic_stage,
    fold_hybrid_stage,
    identity_gamma_stage,
    naive_sort_stage,
)
from repro.vqe import select_ansatz_terms

#: Variant name -> the ``(slot, stage)`` substitutions it applies.
VARIANTS = {
    "full": (),
    "no-bosonic": (("classify", fold_bosonic_stage),),
    "no-hybrid": (("schedule_hybrid", fold_hybrid_stage),),
    "identity-gamma": (("gamma_search", identity_gamma_stage),),
    "naive-sort": (("sort", naive_sort_stage),),
    "all-off": (
        ("classify", fold_bosonic_stage),
        ("schedule_hybrid", fold_hybrid_stage),
        ("gamma_search", identity_gamma_stage),
        ("sort", naive_sort_stage),
    ),
}

#: Γ digests shared by several variants: the identity on LiH's 10 and NH3's
#: 14 qubits, and the Γ the search picks on NH3/8 with compression on.
IDENTITY_10 = "e6f1e0016bd69e5208d7779bafd908447f0ffbf5bd505201465dc3d9494ee864"
IDENTITY_14 = "7301dd4157748603429a6eb66de87935a0c6aa5eb5dd7b4d4de8edae3c5da830"
NH3_SEARCHED_GAMMA = "c69cc01561075ee976e7af6427caa300726f373a2c4b9997e3d0c3b05c41ab6c"

#: (molecule, n_terms, variant) -> (CNOTs, breakdown (bosonic, hybrid,
#: fermionic), Γ sha256, sequence sha256).
PINS = {
    ("LiH", 20, "full"): (
        106,
        (8, 56, 42),
        IDENTITY_10,
        "00dcb4bd8ffb4bac75c4d44730d2ca82239ada5f33dea715bf22a6090590c921",
    ),
    ("LiH", 20, "no-bosonic"): (
        142,
        (0, 56, 86),
        "711e5e47c98ad10e9ac9a1974a350a286675a6f160eaf3ef6629495a28318e32",
        "8f19b1f47d66bfcdcac34b0d9e70b0cb3e1aec1b7fc399a58fb63d0cedc3be30",
    ),
    ("LiH", 20, "no-hybrid"): (
        148,
        (8, 0, 140),
        IDENTITY_10,
        "9b1a64fb622a64242aa01ec03acf90a4ec4db3587f20e1308afe6f0028cc44ed",
    ),
    # On LiH/20 the search keeps the identity, so identity Γ changes nothing.
    ("LiH", 20, "identity-gamma"): (
        106,
        (8, 56, 42),
        IDENTITY_10,
        "00dcb4bd8ffb4bac75c4d44730d2ca82239ada5f33dea715bf22a6090590c921",
    ),
    ("LiH", 20, "naive-sort"): (
        152,
        (8, 56, 88),
        IDENTITY_10,
        "da7f7ed8809d8813790159b02324ce73a300d24df86fb3171a7b467ae2891a41",
    ),
    ("LiH", 20, "all-off"): (
        331,
        (0, 0, 331),
        IDENTITY_10,
        "b9ee43a56e0052183fbd131bc746b7a4a0fd597bd06247605c721524712167d5",
    ),
    ("NH3", 8, "full"): (
        104,
        (6, 0, 98),
        NH3_SEARCHED_GAMMA,
        "0f31808888143473224baede6a488a4528a3618fe10d76639ea958f611feb7da",
    ),
    ("NH3", 8, "no-bosonic"): (
        125,
        (0, 0, 125),
        "5d00aef3e08e048e7571525d887680d59beec92fc9bddbd47d3360c08b1faed0",
        "e01f2ed1788a5c50759e8710406ada7f23155ee1d5a9e902bb2ea93b26ba73c7",
    ),
    # NH3/8 has no hybrid terms, so folding them changes nothing.
    ("NH3", 8, "no-hybrid"): (
        104,
        (6, 0, 98),
        NH3_SEARCHED_GAMMA,
        "0f31808888143473224baede6a488a4528a3618fe10d76639ea958f611feb7da",
    ),
    ("NH3", 8, "identity-gamma"): (
        99,
        (6, 0, 93),
        IDENTITY_14,
        "83d5a35f03911807c9c87192819521cf7133f92e470ed8db9eaa1fe67559986a",
    ),
    ("NH3", 8, "naive-sort"): (
        248,
        (6, 0, 242),
        NH3_SEARCHED_GAMMA,
        "512cb7546dac088888fae6608347b3859df36394ab5d40018d4e491011f7fc1e",
    ),
    ("NH3", 8, "all-off"): (
        176,
        (0, 0, 176),
        IDENTITY_14,
        "2fbde299307c753d040c1c5d971857bcd97f86a8959377a2ec8b63393e4f11ea",
    ),
}


def sequence_digest(ordered_rotations) -> str:
    """SHA-256 of the ordered ``(label, repr(angle), target)`` triples."""
    sequence = [
        [rotation.string.to_label(), repr(float(rotation.angle)), int(target)]
        for rotation, target in ordered_rotations
    ]
    return hashlib.sha256(json.dumps(sequence).encode()).hexdigest()


@pytest.fixture(scope="module")
def cells():
    """(molecule, n_terms) -> (terms, n_qubits), built once per module."""
    built = {}
    for molecule, n_terms in {(molecule, n_terms) for molecule, n_terms, _ in PINS}:
        hamiltonian = build_molecular_hamiltonian(
            run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
        )
        built[(molecule, n_terms)] = (
            select_ansatz_terms(hamiltonian, n_terms),
            hamiltonian.n_spin_orbitals,
        )
    return built


@pytest.mark.parametrize(
    "cell", sorted(PINS), ids=lambda cell: "-".join(str(part) for part in cell)
)
def test_ablation_is_pinned(cell, cells):
    molecule, n_terms, variant = cell
    cnots, (bosonic, hybrid, fermionic), gamma_digest, digest = PINS[cell]
    terms, n_qubits = cells[(molecule, n_terms)]
    pipeline = AdvancedPipeline(CompilerConfig(seed=0))
    for name, stage in VARIANTS[variant]:
        pipeline = pipeline.with_stage(name, stage)

    result = pipeline.run(terms, n_qubits=n_qubits)

    assert result.cnot_count == cnots
    assert result.breakdown() == {
        "bosonic": bosonic,
        "hybrid": hybrid,
        "fermionic": fermionic,
        "total": cnots,
    }
    assert result.gamma.dtype == np.uint8
    assert hashlib.sha256(result.gamma.tobytes()).hexdigest() == gamma_digest
    assert sequence_digest(result.sorting.ordered_rotations) == digest
