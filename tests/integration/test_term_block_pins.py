"""Term-block pins: the JW, BK and baseline sequences on Table-I cells.

The benchmark's chemistry (one frozen spatial orbital, HMP2 term order).
Each pin is the SHA-256 of the compiled ``(x_mask, z_mask,
float.hex(angle), target)`` sequence plus the backend's CNOT count:

* JW, BK and the baseline (Γ = I) on LiH/20, H2O/20 and NH3/30;
* the baseline with a short binary-PSO Γ search at config seed 0 on LiH/8
  and NH3/8, together with the SHA-256 of the Γ bytes (uint8) it picks;
* the advanced backend on H2O/20, whose GTSP search is seeded with both
  term-block tours.

All of these flows run the term-block order of
:func:`repro.core.term_block_order`: the baseline ordered, JW/BK
unordered, the GTSP seeds both ways, the PSO objective on Γ-mapped
planes.  A change to the shared-target rule, the within-term order, the
inter-term chaining or the PSO objective fails here even when a count
survives.
"""

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.api import CompileRequest, CompilerConfig, compiled_rotation_sequence, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.vqe import select_ansatz_terms

#: (molecule, n_terms, backend) -> (sequence sha256, CNOTs).
PINS = {
    ("LiH", 20, "jordan-wigner"): (
        "21c6e2bfed20b55fe281e1c238844ca5be0f477d6a56b41c01db3dcb9f5b3f1d",
        331,
    ),
    ("LiH", 20, "bravyi-kitaev"): (
        "8e8f5cf1412a294571a6db1cf5bdf49b940dcc3a94483246b52fc140c1dc6f00",
        384,
    ),
    ("LiH", 20, "baseline"): (
        "57991274727aa338e6404e50b5baaf47df70a1e650ec10729d55d7fba114d1ea",
        178,
    ),
    ("H2O", 20, "jordan-wigner"): (
        "d05c2bda91492b2c3b382310eb1e5e6440c0f55def0f9cd9b1584b1d5c64dbdd",
        386,
    ),
    ("H2O", 20, "bravyi-kitaev"): (
        "e18dbba00db086a67bc7a563f049682a5a24f6184cb56fda4060f2b54917f42d",
        523,
    ),
    ("H2O", 20, "baseline"): (
        "5c8b7a9cbc2b6ff9cdd125ffd22239f8b877f843fb727cc10f6f34bb474db7ce",
        178,
    ),
    ("NH3", 30, "jordan-wigner"): (
        "35b55bfe75346161029843d1facf61ab405db1065c0ea7506f835f851c8d48c8",
        624,
    ),
    ("NH3", 30, "bravyi-kitaev"): (
        "41b2f6b4b8d721429b137090fc1100cd0c7b787f557cdafb139511161338bb84",
        785,
    ),
    ("NH3", 30, "baseline"): (
        "855bb855e4cfec3a27a48559661d4e46646df8fe95e77143e2030e06dd736efc",
        270,
    ),
}

#: (molecule, n_terms) -> (sequence sha256, CNOTs, Γ sha256) of the baseline
#: with ``baseline_pso_iterations=3, baseline_pso_particles=4`` at seed 0.
PSO_PINS = {
    ("LiH", 8): (
        "cb24b2e49bbd555b72c9170258cd755887828d6e65b7dad7b09cc605146c7d69",
        62,
        "e6f1e0016bd69e5208d7779bafd908447f0ffbf5bd505201465dc3d9494ee864",
    ),
    ("NH3", 8): (
        "c7ca176fd8115290fad07c548c842962ff2eb9f9c9164ea49a5fb0ed220a33da",
        100,
        "7301dd4157748603429a6eb66de87935a0c6aa5eb5dd7b4d4de8edae3c5da830",
    ),
}

#: The advanced backend (GTSP seeded with the term-block tours) on H2O/20 at seed 0.
SEEDED_ADVANCED_PIN = (
    "c629958098c3e7789ba955860c07a4c9953eb8463edcc024c6f7b1c9da8e30fe",
    175,
)


@lru_cache(maxsize=None)
def cell(molecule, n_terms):
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
    )
    return tuple(select_ansatz_terms(hamiltonian, n_terms)), hamiltonian.n_spin_orbitals


def compile_cell(molecule, n_terms, backend, config=CompilerConfig()):
    terms, n_qubits = cell(molecule, n_terms)
    result = get_backend(backend).compile(
        CompileRequest(terms=terms, n_qubits=n_qubits, config=config)
    )
    return result, compiled_rotation_sequence(result, terms)


def sequence_digest(sequence) -> str:
    """SHA-256 of the ``(x_mask, z_mask, float.hex(angle), target)`` records."""
    records = [
        [string.x_mask, string.z_mask, float(angle).hex(), int(target)]
        for string, angle, target in sequence
    ]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize("pin", sorted(PINS), ids=lambda pin: "-".join(map(str, pin)))
def test_term_block_sequence_is_pinned(pin):
    result, sequence = compile_cell(*pin)
    assert (sequence_digest(sequence), result.cnot_count) == PINS[pin]


@pytest.mark.parametrize(
    "pin", sorted(PSO_PINS), ids=lambda pin: "-".join(map(str, pin))
)
def test_baseline_pso_is_pinned(pin):
    config = CompilerConfig(seed=0, baseline_pso_iterations=3, baseline_pso_particles=4)
    result, sequence = compile_cell(*pin, "baseline", config)
    gamma = np.asarray(result.details.transform_matrix, dtype=np.uint8)
    assert (
        sequence_digest(sequence),
        result.cnot_count,
        hashlib.sha256(gamma.tobytes()).hexdigest(),
    ) == PSO_PINS[pin]


def test_seeded_advanced_sort_is_pinned():
    result, sequence = compile_cell("H2O", 20, "advanced", CompilerConfig(seed=0))
    assert (sequence_digest(sequence), result.cnot_count) == SEEDED_ADVANCED_PIN
