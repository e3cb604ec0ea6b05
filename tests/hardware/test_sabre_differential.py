"""The SABRE router against its straightforward formulation, result for result.

``sabre_reference.reference_route_circuit_sabre`` re-scans the ready set and
rebuilds the front layer, the lookahead window and the candidate SWAPs after
every SWAP.  The library router keeps that state until a gate executes and
re-checks only the gates on the two swapped qubits.  Both must return the
same routed gates, SWAP count and layouts: on random circuits over line,
ring, grid, heavy-hex and all-to-all couplings (with spare physical qubits,
custom layouts, several lookaheads, weights, seeds and stall limits), and on
the advanced Table-I circuits at config seeds 0–2 on a line.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sabre_reference import reference_route_circuit_sabre

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.circuits import Circuit
from repro.circuits.gates import Gate
from repro.hardware import Topology, route_circuit
from repro.vqe import select_ansatz_terms

TOPOLOGY_KINDS = ("line", "ring", "grid", "heavy-hex", "all-to-all")


def make_topology(kind: str, n_physical: int) -> Topology:
    if kind == "line":
        return Topology.line(n_physical)
    if kind == "ring":
        return Topology.ring(n_physical)
    if kind == "grid":
        return Topology.grid(2, (n_physical + 1) // 2)
    if kind == "heavy-hex":
        return Topology.heavy_hex(1, 1)
    return Topology.all_to_all(n_physical)


@st.composite
def routing_inputs(draw):
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    n_logical = draw(st.integers(2, 7))
    spare = draw(st.integers(0, 3))
    topology = make_topology(kind, max(n_logical + spare, 3))
    n_physical = topology.n_qubits
    gates = []
    for _ in range(draw(st.integers(0, 60))):
        name = draw(st.sampled_from(("H", "RZ", "CNOT", "CNOT", "CZ", "SWAP")))
        if name in ("H", "RZ"):
            qubit = draw(st.integers(0, n_logical - 1))
            parameter = draw(st.floats(-3, 3)) if name == "RZ" else None
            gates.append(Gate(name, (qubit,), parameter))
        else:
            pair = draw(
                st.lists(
                    st.integers(0, n_logical - 1), min_size=2, max_size=2, unique=True
                )
            )
            gates.append(Gate(name, tuple(pair)))
    layout = None
    if draw(st.booleans()):
        layout = draw(st.permutations(range(n_physical)))[:n_logical]
    options = dict(
        seed=draw(st.integers(0, 2**16)),
        lookahead=draw(st.sampled_from((1, 5, 20))),
        lookahead_weight=draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0, 10.0))),
        initial_layout=layout,
        max_stall=draw(st.sampled_from((1, 2, None))),
    )
    return Circuit(n_logical, gates), topology, options


def result_fields(result):
    """Every field of a ``RoutingResult``, the circuit as its gate reprs."""
    return (
        result.circuit.n_qubits,
        result.circuit.gates,
        tuple(repr(gate) for gate in result.circuit),
        result.topology,
        result.n_swaps,
        result.initial_layout,
        result.final_layout,
        result.initial_inverse_layout,
        result.final_inverse_layout,
    )


def assert_same_routing(circuit: Circuit, topology: Topology, **options):
    expected = reference_route_circuit_sabre(circuit, topology, **options)
    actual = route_circuit(circuit, topology, **options)
    assert result_fields(actual) == result_fields(expected)
    return actual


@given(routing_inputs())
@settings(max_examples=300, deadline=None)
def test_router_matches_reference(inputs):
    circuit, topology, options = inputs
    assert_same_routing(circuit, topology, **options)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["line", "ring", "grid", "heavy-hex"])
def test_dense_cnot_circuits_match_reference(kind, seed):
    """Long CNOT-only circuits under a heavy lookahead weight, where undoing
    the last SWAP would often score best (the router must skip it)."""
    rng = np.random.default_rng(seed)
    n_logical = 6 + seed % 4
    pairs = [rng.choice(n_logical, size=2, replace=False) for _ in range(70)]
    assert_same_routing(
        Circuit(n_logical, [Gate("CNOT", tuple(pair)) for pair in pairs]),
        make_topology(kind, n_logical),
        seed=seed,
        lookahead=20 if seed % 2 else 5,
        lookahead_weight=10.0,
        initial_layout=None,
        max_stall=(2, None)[seed % 2],
    )


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
@pytest.mark.parametrize("max_stall", [1, 2, None])
def test_spare_qubits_and_stall_limits(kind, max_stall):
    """Unoccupied physical qubits map to -1 and forced SWAPs still agree."""
    topology = make_topology(kind, 9)
    gates = [Gate("CNOT", (a, b)) for a in range(6) for b in range(6) if a != b]
    result = assert_same_routing(
        Circuit(6, gates),
        topology,
        seed=3,
        lookahead=5,
        lookahead_weight=0.5,
        initial_layout=[8, 0, 4, 2, 6, 1],
        max_stall=max_stall,
    )
    assert result.final_inverse_layout.count(-1) == topology.n_qubits - 6


# ----------------------------------------------------------------------
# Option checks
# ----------------------------------------------------------------------
def cnot_ladder(n: int) -> Circuit:
    pairs = [(a, (a + step) % n) for step in (n // 2, 2, 1) for a in range(n)]
    return Circuit(n, [Gate("CNOT", pair) for pair in pairs])


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("topology", [Topology.line(6), Topology.grid(2, 3)])
def test_lookahead_zero_scores_the_front_layer_only(seed, topology):
    circuit = cnot_ladder(6)
    front_only = route_circuit(circuit, topology, seed=seed, lookahead=0)
    unweighted = route_circuit(circuit, topology, seed=seed, lookahead_weight=0.0)
    assert result_fields(front_only) == result_fields(unweighted)


def test_negative_lookahead_rejected():
    with pytest.raises(ValueError, match="lookahead must be >= 0"):
        route_circuit(cnot_ladder(4), Topology.line(4), lookahead=-1)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -0.5])
def test_invalid_lookahead_weight_rejected(weight):
    with pytest.raises(ValueError, match="lookahead_weight must be finite"):
        route_circuit(cnot_ladder(4), Topology.line(4), lookahead_weight=weight)


# ----------------------------------------------------------------------
# Table-I circuits
# ----------------------------------------------------------------------
GRID = [(m, n) for m in ("LiH", "BeH2", "H2O", "NH3") for n in (8, 20, 30)]


@pytest.fixture(scope="module")
def grid_circuits():
    """The advanced fermionic circuits of the grid at config seeds 0–2."""
    circuits = {}
    for molecule in ("LiH", "BeH2", "H2O", "NH3"):
        hamiltonian = build_molecular_hamiltonian(
            run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
        )
        ranking = select_ansatz_terms(hamiltonian, None)
        for n_terms in (8, 20, 30):
            for seed in (0, 1, 2):
                request = CompileRequest(
                    terms=tuple(ranking[:n_terms]),
                    n_qubits=hamiltonian.n_spin_orbitals,
                    config=CompilerConfig(seed=seed),
                )
                advanced = get_backend("advanced").compile(request)
                circuits[molecule, n_terms, seed] = advanced.details.fermionic_circuit()
    return circuits


@pytest.mark.parametrize("molecule,n_terms", GRID)
def test_grid_circuits_route_like_the_reference(grid_circuits, molecule, n_terms):
    for seed in (0, 1, 2):
        circuit = grid_circuits[molecule, n_terms, seed]
        routed = assert_same_routing(
            circuit,
            Topology.line(circuit.n_qubits),
            seed=seed,
            lookahead=20,
            lookahead_weight=0.5,
            initial_layout=None,
            max_stall=None,
        )
        # Gates built by the internal constructor are what the public one builds.
        for gate in (*circuit, *routed.circuit):
            assert Gate(gate.name, gate.qubits, gate.parameter) == gate
            assert all(type(qubit) is int for qubit in gate.qubits)
