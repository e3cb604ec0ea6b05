"""Routed Table I: compare the four backends across device topologies.

Table I of the paper counts CNOTs assuming all-to-all connectivity; on a real
device every two-qubit gate must land on a coupling-graph edge.  This demo
compiles the full-UCCSD H2 ansatz (and, with ``--molecule H2O``, the 4-term
HMP2 water selection) for each standard topology family and shows what
connectivity actually costs:

* the abstract Table-I CNOT count (``CompileResult.cnot_count``),
* the *steered* executable circuit — topology-aware parity ladders, zero
  SWAPs (``CompileResult.routing``, attached automatically once the
  :class:`repro.api.CompilerConfig` carries a
  :class:`repro.hardware.Topology`),
* the naive nearest-neighbour ladder routing of the all-to-all circuit, the
  overhead bound the subsystem is designed to beat.

Run with:  python examples/routed_table1.py [--molecule H2|H2O]
"""

import argparse

from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileRequest,
    CompilerConfig,
    compile_batch,
    compiled_rotation_sequence,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.circuits import exponential_sequence_circuit, optimize_circuit
from repro.hardware import TOPOLOGY_KINDS, naive_route_circuit, topology_for
from repro.vqe import hmp2_ranked_terms

BACKENDS = tuple(DEFAULT_BACKEND_NAMES)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--molecule", choices=["H2", "H2O"], default="H2")
    args = parser.parse_args()

    if args.molecule == "H2":
        scf = run_rhf(make_molecule("H2"))
        hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=0)
        terms = tuple(hmp2_ranked_terms(hamiltonian))
    else:
        scf = run_rhf(make_molecule("H2O"))
        hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
        terms = tuple(hmp2_ranked_terms(hamiltonian)[:4])
    n_qubits = hamiltonian.n_spin_orbitals
    base_config = CompilerConfig(gamma_steps=20, seed=0)

    print(
        f"{args.molecule}: {len(terms)} excitation terms on {n_qubits} qubits\n"
    )
    header = (
        f"{'topology':<15}{'backend':<15}{'Table-I':>8}{'steered':>9}"
        f"{'2q-depth':>9}{'naive ladder':>13}{'swaps':>7}"
    )
    print(header)
    print("-" * len(header))

    for kind in TOPOLOGY_KINDS:
        topology = topology_for(kind, n_qubits)
        config = base_config.replace(topology=topology)
        request = CompileRequest(terms=terms, n_qubits=n_qubits, config=config)
        row = compile_batch([request], backends=BACKENDS).results[0]
        for name in BACKENDS:
            result = row[name]
            sequence = compiled_rotation_sequence(result, terms)
            reference = optimize_circuit(
                exponential_sequence_circuit(sequence, n_qubits=n_qubits)
            )
            naive = naive_route_circuit(reference, topology)
            print(
                f"{topology.name:<15}{name:<15}{result.cnot_count:>8}"
                f"{result.routing.cnot_count:>9}{result.routing.two_qubit_depth:>9}"
                f"{naive.metrics().cnot_count:>13}{naive.n_swaps:>7}"
            )
        print()

    print(
        "steered = topology-aware parity ladders (repro.hardware.synthesis), "
        "0 SWAPs by construction;\nnaive ladder = all-to-all star circuit "
        "routed gate-by-gate along shortest paths (the bound to beat)."
    )


if __name__ == "__main__":
    main()
