"""Regenerate the fast-tier Table-I golden file (tests/golden/table1_fast.json).

The golden file pins the paper's headline numbers for two cheap, fully
deterministic cases — full-UCCSD H2 and the 4-term HMP2 selection for water
("HMP2-small") — across all four registered backends, plus gate-level depth
and CNOT counts of the advanced pipeline's fermionic circuit.  The regression
test ``tests/integration/test_golden_table1.py`` compares fresh compilations
against this file bit-for-bit, so optimizer or operator-core changes that
silently shift Table I fail loudly.

Only rerun this script to *intentionally* move the pinned numbers:

    PYTHONPATH=src python tools/make_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import DEFAULT_BACKEND_NAMES, CompileRequest, CompilerConfig, compile_batch
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.circuits import optimize_circuit
from repro.hardware import route_circuit, topology_for
from repro.vqe import hmp2_ranked_terms

#: The deterministic fast-tier configuration (matches benchmarks/test_table1_cnot_counts.py).
GOLDEN_CONFIG = CompilerConfig(gamma_steps=20, seed=0)

#: (case name, molecule, frozen spatial orbitals, number of HMP2 terms or None for all).
GOLDEN_CASES = [
    ("H2", "H2", 0, None),
    ("HMP2-small", "H2O", 1, 4),
]

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "table1_fast.json"

#: Topology families pinned by the routing regression (per golden case).
GOLDEN_TOPOLOGY_KINDS = ("line", "grid")


def golden_entry(molecule_name: str, n_frozen: int, n_terms):
    scf = run_rhf(make_molecule(molecule_name))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=n_frozen)
    ranked = hmp2_ranked_terms(hamiltonian)
    terms = ranked if n_terms is None else ranked[:n_terms]
    request = CompileRequest(
        terms=tuple(terms), n_qubits=hamiltonian.n_spin_orbitals, config=GOLDEN_CONFIG
    )
    row = compile_batch([request], backends=DEFAULT_BACKEND_NAMES).results[0]
    advanced = row["advanced"].details
    circuit = advanced.fermionic_circuit(optimize=False)
    optimized = optimize_circuit(circuit)
    return {
        "molecule": molecule_name,
        "n_frozen_spatial_orbitals": n_frozen,
        "n_terms": len(terms),
        "n_qubits": hamiltonian.n_spin_orbitals,
        "cnot_counts": {name: row[name].cnot_count for name in DEFAULT_BACKEND_NAMES},
        "advanced_breakdown": advanced.breakdown(),
        "advanced_circuit": {
            "cnot_count": circuit.cnot_count,
            "depth": circuit.depth(),
            "optimized_cnot_count": optimized.cnot_count,
            "optimized_depth": optimized.depth(),
        },
    }


def routing_entry(molecule_name: str, n_frozen: int, n_terms, kind: str):
    """Pinned routed CNOT/SWAP counts of one (case, topology family) pair.

    The steered numbers pin the topology-aware synthesis of every backend
    (zero SWAPs by construction); the SABRE numbers pin the generic router's
    SWAP insertion on the advanced fermionic circuit, so heuristic changes in
    either path fail the regression loudly.
    """
    scf = run_rhf(make_molecule(molecule_name))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=n_frozen)
    ranked = hmp2_ranked_terms(hamiltonian)
    terms = ranked if n_terms is None else ranked[:n_terms]
    topology = topology_for(kind, hamiltonian.n_spin_orbitals)
    request = CompileRequest(
        terms=tuple(terms),
        n_qubits=hamiltonian.n_spin_orbitals,
        config=GOLDEN_CONFIG.replace(topology=topology),
    )
    row = compile_batch([request], backends=DEFAULT_BACKEND_NAMES).results[0]
    steered = {
        name: {
            "cnot_count": row[name].routing.cnot_count,
            "n_swaps": row[name].routing.n_swaps,
            "depth": row[name].routing.depth,
            "two_qubit_depth": row[name].routing.two_qubit_depth,
        }
        for name in DEFAULT_BACKEND_NAMES
    }
    sabre = route_circuit(
        optimize_circuit(row["advanced"].details.fermionic_circuit(optimize=False)),
        topology,
        seed=GOLDEN_CONFIG.seed,
    )
    return {
        "topology": topology.name,
        "table1_cnot_counts": {
            name: row[name].cnot_count for name in DEFAULT_BACKEND_NAMES
        },
        "steered": steered,
        "sabre_advanced": {
            "cnot_count": sabre.metrics().cnot_count,
            "n_swaps": sabre.n_swaps,
        },
    }


def main() -> None:
    golden = {
        "config": {
            "gamma_steps": GOLDEN_CONFIG.gamma_steps,
            "seed": GOLDEN_CONFIG.seed,
        },
        "cases": {
            name: golden_entry(molecule, n_frozen, n_terms)
            for name, molecule, n_frozen, n_terms in GOLDEN_CASES
        },
        "routing": {
            name: {
                kind: routing_entry(molecule, n_frozen, n_terms, kind)
                for kind in GOLDEN_TOPOLOGY_KINDS
            }
            for name, molecule, n_frozen, n_terms in GOLDEN_CASES
        },
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"Wrote {GOLDEN_PATH}")
    for name, case in golden["cases"].items():
        print(f"  {name}: {case['cnot_counts']}  circuit={case['advanced_circuit']}")
    for name, kinds in golden["routing"].items():
        for kind, entry in kinds.items():
            steered_adv = entry["steered"]["advanced"]
            print(
                f"  {name}/{entry['topology']}: steered adv={steered_adv}  "
                f"sabre adv={entry['sabre_advanced']}"
            )


if __name__ == "__main__":
    main()
