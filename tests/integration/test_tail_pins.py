"""Tail pins on Table-I cells: synthesis, SABRE routing and the verify report.

The benchmark's chemistry (one frozen spatial orbital, HMP2 term order)
compiled by the advanced backend at config seed 0, then taken through the
same tail as the ``grid_cold`` benchmark: the fermionic circuit, SABRE on a
line of the register's size at seed 0, and ``assert_implements_rotations``.
Each pin holds the SHA-256 of the synthesized and of the routed gate lists
(name, qubits and ``repr`` of the angle per gate), the SWAP count, the final
layout and the verify report's engine and exactness.  Any change to gate
order in synthesis, to SWAP scoring or tie-breaking, or to the verifier's
dispatch fails here even when the counts happen to survive.
"""

import hashlib

import pytest

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.hardware import Topology, route_circuit
from repro.verify import assert_implements_rotations
from repro.vqe import select_ansatz_terms

#: (molecule, n_terms) -> (synthesized sha256, routed sha256, SWAPs,
#: final layout, verify engine, exact).
PINS = {
    ("BeH2", 20): (
        "5b0a3c21014bb51c89402a25362e1e65be93e6408b3ffba0a826a8a0677854ab",
        "e6c5b02e2cc920b7dd245e0a8e948e8728c72d2203a0e1467a28d0cfc65b19d3",
        666,
        (0, 4, 3, 2, 1, 9, 10, 11, 6, 8, 7, 5),
        "pauli",
        True,
    ),
    ("NH3", 30): (
        "143309fea42211472c726ea9fd2b6b675883ce819e83c5479eb065eb3e97e4b7",
        "0d85ca3f5548c8eaa786f539af6def6957ff881932607b0bea1dfd2e6f1f1645",
        2365,
        (1, 2, 4, 6, 8, 9, 12, 13, 0, 11, 3, 10, 5, 7),
        "pauli",
        True,
    ),
}


def gates_digest(gates) -> str:
    """SHA-256 of one ``name|qubits|repr(angle)`` line per gate."""
    text = "\n".join(f"{gate.name}|{gate.qubits}|{gate.parameter!r}" for gate in gates)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("molecule,n_terms", sorted(PINS))
def test_tail_is_pinned(molecule, n_terms):
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
    )
    request = CompileRequest(
        terms=tuple(select_ansatz_terms(hamiltonian, n_terms)),
        n_qubits=hamiltonian.n_spin_orbitals,
        config=CompilerConfig(seed=0),
    )
    advanced = get_backend("advanced").compile(request)
    circuit = advanced.details.fermionic_circuit()
    routed = route_circuit(circuit, Topology.line(circuit.n_qubits), seed=0)
    report = assert_implements_rotations(
        circuit,
        [
            (rotation.string, rotation.angle)
            for rotation, _ in advanced.details.sorting.ordered_rotations
        ],
    )

    synthesized, routed_digest, n_swaps, final_layout, engine, exact = PINS[
        (molecule, n_terms)
    ]
    assert gates_digest(circuit.gates) == synthesized
    assert gates_digest(routed.circuit.gates) == routed_digest
    assert routed.n_swaps == n_swaps
    assert routed.final_layout == final_layout
    assert (report.engine, report.exact) == (engine, exact)
