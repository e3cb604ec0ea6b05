"""Acceptance: routed circuits are connectivity-legal and unitary-equivalent.

For the full-UCCSD H2 ansatz, every registered Table-I backend compiled with
a device topology must produce a routed circuit that (a) only uses
topology-edge two-qubit gates and (b) implements exactly the same unitary as
the unrouted synthesis of the same rotation sequence (the steered synthesis
keeps the identity permutation, so the comparison is direct).  Compression is
disabled so the full flow is synthesized: the registered ``gt`` and ``adv``
backends always compress, so their compression-free flows run directly
(``BaselineCompiler(use_bosonic_encoding=False)`` and the advanced pipeline
with both fold stages) and are routed by the backends' own
``sequence_routing_metrics``.  A SABRE cross-check routes the
naive all-to-all circuit and verifies equivalence up to the reported
permutation.

Equivalence goes through :func:`repro.verify.assert_equivalent`: the H2
cases land on the dense engine (n = 4), while the large-register cases run
the same routed-vs-unrouted contract at 20-32 qubits on the Pauli-propagation
engine — registers where the dense comparison is physically impossible.
"""

import random

import numpy as np
import pytest

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.api.backends import sequence_routing_metrics
from repro.baselines import BaselineCompiler, naive_rotation_sequence
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.circuits import Circuit, exponential_sequence_circuit, optimize_circuit
from repro.core import AdvancedPipeline, fold_bosonic_stage, fold_hybrid_stage
from repro.hardware import Topology, route_circuit, routed_exponential_sequence_circuit
from repro.operators import PauliString
from repro.transforms import (
    BravyiKitaevTransform,
    JordanWignerTransform,
    LinearEncodingTransform,
)
from repro.verify import assert_equivalent
from repro.vqe import hmp2_ranked_terms

TOPOLOGIES = [Topology.line(4), Topology.ring(4), Topology.grid(2, 2)]

BACKENDS = ("jw", "bk", "gt", "adv")


@pytest.fixture(scope="module")
def h2_terms():
    scf = run_rhf(make_molecule("H2"))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=0)
    return tuple(hmp2_ranked_terms(hamiltonian))


def compression_free_config(topology):
    return CompilerConfig(gamma_steps=5, seed=0, topology=topology)


def compiled_sequence(backend_name, terms, config):
    """The compression-free ``(string, angle, target)`` sequence + its routing."""
    if backend_name in ("jw", "bk"):
        request = CompileRequest(terms=terms, n_qubits=4, config=config)
        result = get_backend(backend_name).compile(request)
        transform = (
            JordanWignerTransform(4) if backend_name == "jw" else BravyiKitaevTransform(4)
        )
        return naive_rotation_sequence(list(terms), transform), result.routing
    if backend_name == "gt":
        result = BaselineCompiler(use_bosonic_encoding=False).compile(
            list(terms), n_qubits=4
        )
        sequence = list(result.ordered_exponentials)
    else:
        result = (
            AdvancedPipeline(config)
            .with_stage("classify", fold_bosonic_stage)
            .with_stage("schedule_hybrid", fold_hybrid_stage)
            .run(terms, n_qubits=4)
        )
        sequence = [
            (rotation.string, rotation.angle, target)
            for rotation, target in result.sorting.ordered_rotations
        ]
    return sequence, sequence_routing_metrics(sequence, config)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_routed_h2_is_legal_and_equivalent(backend_name, topology, h2_terms):
    config = compression_free_config(topology)
    sequence, metrics = compiled_sequence(backend_name, h2_terms, config)
    assert sequence, "compilation produced no rotations"

    unrouted = exponential_sequence_circuit(sequence, n_qubits=4)
    routed = optimize_circuit(routed_exponential_sequence_circuit(sequence, topology))

    for gate in routed:
        if gate.is_two_qubit:
            assert topology.is_edge(*gate.qubits), f"{gate} off {topology.name}"

    report = assert_equivalent(routed, unrouted)
    assert report.exact  # n=4 dispatches to the dense engine: a proof

    # The reported metrics describe exactly this executable circuit.
    assert metrics.cnot_count == routed.cnot_count
    assert metrics.depth == routed.depth()
    assert metrics.two_qubit_depth == routed.two_qubit_depth()


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
def test_sabre_routed_h2_equivalent_up_to_permutation(topology, h2_terms):
    """Cross-check the generic SWAP router on the advanced H2 circuit."""
    config = compression_free_config(None)
    sequence, _ = compiled_sequence("adv", h2_terms, config)
    unrouted = exponential_sequence_circuit(sequence, n_qubits=4)
    routed = route_circuit(unrouted, topology, seed=0)
    for gate in routed.circuit:
        if gate.is_two_qubit:
            assert topology.is_edge(*gate.qubits)
    undone = routed.circuit.compose(routed.undo_permutation_circuit())
    assert_equivalent(undone, unrouted)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_line_ladders_cost_at_least_all_to_all_before_optimization(
    backend_name, h2_terms
):
    """Pre-peephole, steering on a line can never beat the all-to-all star."""
    sequence, _ = compiled_sequence(
        backend_name, h2_terms, compression_free_config(None)
    )
    line = routed_exponential_sequence_circuit(sequence, Topology.line(4))
    star = exponential_sequence_circuit(sequence, n_qubits=4)
    assert line.cnot_count >= star.cnot_count


def test_steered_beats_or_matches_sabre_on_line(h2_terms):
    """Steering ladders along the line never loses to routing the star ladder."""
    line = Topology.line(4)
    sequence, metrics = compiled_sequence("adv", h2_terms, compression_free_config(line))
    steered_cnots = metrics.cnot_count
    unrouted = exponential_sequence_circuit(sequence, n_qubits=4)
    sabre = route_circuit(optimize_circuit(unrouted), line, seed=0)
    assert steered_cnots <= sabre.metrics().cnot_count


# ----------------------------------------------------------------------
# Large registers: the same contracts where dense simulation cannot go
# ----------------------------------------------------------------------
def random_rotation_sequence(n_qubits, n_terms, seed, max_weight=5):
    """Random ``(P, θ, target)`` rotation terms with bounded support."""
    rng = random.Random(seed)
    sequence = []
    for _ in range(n_terms):
        support = rng.sample(range(n_qubits), rng.randrange(2, max_weight + 1))
        labels = {q: rng.choice("XYZ") for q in support}
        sequence.append(
            (PauliString.from_dict(n_qubits, labels), rng.uniform(-2.0, 2.0), None)
        )
    return sequence


@pytest.mark.parametrize(
    "topology",
    [Topology.line(20), Topology.ring(24), Topology.grid(4, 8)],
    ids=lambda t: t.name,
)
def test_steered_routing_equivalent_at_scale(topology):
    """Routed == unrouted at 20-32 qubits, decided by the Pauli engine."""
    n = topology.n_qubits
    sequence = random_rotation_sequence(n, 10, seed=n)
    unrouted = exponential_sequence_circuit(sequence, n_qubits=n)
    routed = optimize_circuit(routed_exponential_sequence_circuit(sequence, topology))
    for gate in routed:
        if gate.is_two_qubit:
            assert topology.is_edge(*gate.qubits), f"{gate} off {topology.name}"
    report = assert_equivalent(routed, unrouted)
    assert report.engine == "pauli"  # the scalable engine, not dense
    assert report.exact


def test_sabre_routing_equivalent_at_scale():
    """SABRE + permutation undo at 20 qubits, decided by the Pauli engine."""
    n = 20
    sequence = random_rotation_sequence(n, 8, seed=99)
    unrouted = exponential_sequence_circuit(sequence, n_qubits=n)
    routed = route_circuit(optimize_circuit(unrouted), Topology.line(n), seed=0)
    for gate in routed.circuit:
        if gate.is_two_qubit:
            assert Topology.line(n).is_edge(*gate.qubits)
    undone = routed.circuit.compose(routed.undo_permutation_circuit())
    report = assert_equivalent(undone, unrouted)
    assert report.engine == "pauli"
    assert report.exact


def test_optimizer_preserves_unitary_at_scale():
    """The peephole optimizer is equivalence-checked at 32 qubits."""
    n = 32
    sequence = random_rotation_sequence(n, 12, seed=7)
    circuit = exponential_sequence_circuit(sequence, n_qubits=n)
    optimized = optimize_circuit(circuit.copy())
    assert optimized.cnot_count <= circuit.cnot_count
    report = assert_equivalent(circuit, optimized)
    assert report.engine == "pauli"
    assert report.exact
