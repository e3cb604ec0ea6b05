"""Connectivity-aware Table-I benchmark: per-topology CNOT/SWAP/depth overhead.

For the two fast deterministic Table-I cases (full-UCCSD H2 and the 4-term
HMP2 selection for water) this script compiles every registered backend
against each standard topology family and reports, per (case, topology,
backend):

* the all-to-all gate-level CNOT count of the synthesized circuit (the
  connectivity-free reference),
* the *steered* routed circuit (topology-aware parity ladders, zero SWAPs)
  with CNOT count, depth and two-qubit depth,
* the *naive* nearest-neighbour ladder routing of the all-to-all circuit
  (swap in along a shortest path, execute, swap back) — the overhead bound
  any routing subsystem must beat,
* the SABRE-style router on the same circuit as a mid-point.

The acceptance bar (enforced, exit 1 on failure) is that for the ``adv``
backend on the ``line`` topology the steered routed CNOT count is no worse
than the naive nearest-neighbour ladder routing.  Results are written to
``BENCH_routing.json`` (uploaded as a CI artifact).

Usage:
    PYTHONPATH=src python benchmarks/bench_routing.py [--output BENCH_routing.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.api import (
    CompileRequest,
    CompilerConfig,
    compiled_rotation_sequence,
    get_backend,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.circuits import exponential_sequence_circuit, optimize_circuit
from repro.hardware import naive_route_circuit, route_circuit, topology_for
from repro.vqe import hmp2_ranked_terms

#: (case name, molecule, frozen spatial orbitals, number of HMP2 terms or None).
CASES = [
    ("H2", "H2", 0, None),
    ("HMP2-small", "H2O", 1, 4),
]

TOPOLOGY_KINDS = ("all-to-all", "line", "ring", "grid", "heavy-hex")

BACKENDS = ("jw", "bk", "gt", "adv")

#: Deterministic fast settings (matches tools/make_golden.py).
BASE_CONFIG = CompilerConfig(gamma_steps=20, seed=0)


def case_terms(molecule_name: str, n_frozen: int, n_terms):
    scf = run_rhf(make_molecule(molecule_name))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=n_frozen)
    ranked = hmp2_ranked_terms(hamiltonian)
    terms = ranked if n_terms is None else ranked[:n_terms]
    return tuple(terms), hamiltonian.n_spin_orbitals


def bench_case(name: str, molecule: str, n_frozen: int, n_terms) -> list:
    terms, n_qubits = case_terms(molecule, n_frozen, n_terms)
    rows = []
    for kind in TOPOLOGY_KINDS:
        topology = topology_for(kind, n_qubits)
        config = BASE_CONFIG.replace(topology=topology)
        for backend_name in BACKENDS:
            start = time.perf_counter()
            result = get_backend(backend_name).compile(
                CompileRequest(terms=terms, n_qubits=n_qubits, config=config)
            )
            sequence = compiled_rotation_sequence(result, terms)
            reference = optimize_circuit(
                exponential_sequence_circuit(sequence, n_qubits=n_qubits)
            )
            naive = naive_route_circuit(reference, topology)
            sabre = route_circuit(reference, topology, seed=0)
            steered = result.routing
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "case": name,
                    "molecule": molecule,
                    "n_terms": len(terms),
                    "n_qubits": n_qubits,
                    "topology": topology.name,
                    "topology_kind": kind,
                    "backend": backend_name,
                    "table1_cnot_count": result.cnot_count,
                    "reference_cnot_count": reference.cnot_count,
                    "steered": {
                        "cnot_count": steered.cnot_count,
                        "n_swaps": steered.n_swaps,
                        "depth": steered.depth,
                        "two_qubit_depth": steered.two_qubit_depth,
                        "gate_histogram": dict(steered.gate_histogram),
                    },
                    "naive_ladder": {
                        "cnot_count": naive.metrics().cnot_count,
                        "n_swaps": naive.n_swaps,
                        "depth": naive.metrics().depth,
                        "two_qubit_depth": naive.metrics().two_qubit_depth,
                    },
                    "sabre": {
                        "cnot_count": sabre.metrics().cnot_count,
                        "n_swaps": sabre.n_swaps,
                        "depth": sabre.metrics().depth,
                        "two_qubit_depth": sabre.metrics().two_qubit_depth,
                    },
                    "steered_overhead_percent": (
                        100.0 * (steered.cnot_count / reference.cnot_count - 1.0)
                        if reference.cnot_count
                        else 0.0
                    ),
                    "seconds": elapsed,
                }
            )
            row = rows[-1]
            print(
                f"{name:<11}{topology.name:<15}{backend_name:<5}"
                f"ref={row['reference_cnot_count']:>5}  "
                f"steered={row['steered']['cnot_count']:>5}  "
                f"naive={row['naive_ladder']['cnot_count']:>5} "
                f"(+{row['naive_ladder']['n_swaps']} swaps)  "
                f"sabre={row['sabre']['cnot_count']:>5} "
                f"(+{row['sabre']['n_swaps']} swaps)  [{elapsed:.1f}s]"
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=Path("BENCH_routing.json"))
    args = parser.parse_args()

    header = (
        f"{'case':<11}{'topology':<15}{'bk.':<5}{'reference':>9}  "
        f"{'steered':>7}  {'naive-ladder':>12}  {'sabre':>6}"
    )
    print(header)
    print("-" * len(header))
    rows = []
    for name, molecule, n_frozen, n_terms in CASES:
        rows.extend(bench_case(name, molecule, n_frozen, n_terms))

    # Acceptance bar: on the line topology the advanced backend's steered
    # routing must be no worse than the naive nearest-neighbour ladder bound.
    failures = []
    for row in rows:
        if row["backend"] == "adv" and row["topology_kind"] == "line":
            steered = row["steered"]["cnot_count"]
            naive = row["naive_ladder"]["cnot_count"]
            status = "PASS" if steered <= naive else "FAIL"
            print(
                f"line/adv bar [{row['case']}]: steered {steered} <= "
                f"naive {naive}: {status}"
            )
            if steered > naive:
                failures.append(row["case"])

    payload = {
        "metadata": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cases": [name for name, *_ in CASES],
            "bar": "line/adv steered <= naive nearest-neighbour ladder",
            "bar_ok": not failures,
        },
        "rows": rows,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {args.output}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
