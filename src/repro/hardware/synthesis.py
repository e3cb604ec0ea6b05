"""Topology-aware synthesis of Pauli-string exponentials.

The all-to-all template of :mod:`repro.circuits.pauli_exponential` CNOTs every
support qubit straight onto the target — on a real device each of those CNOTs
would be routed independently with SWAP chains.  This module instead *steers*
the parity ladder along the coupling graph: the support qubits are joined to
the target by the union of shortest paths (a Steiner-like tree rooted at the
target), and the ladder walks the tree edges.

The construction works on the symplectic Z-mask.  Writing the effective
rotation axis of ``C† · Rz(target) · C`` as a Z-mask evolved by the ladder
CNOTs (a CNOT with target ``t`` in the mask toggles its control's membership),
a CNOT from a mask qubit into its tree parent moves the parity one hop toward
the root; a non-support relay qubit costs one extra CNOT to be folded into the
mask first.  Processing tree nodes farthest-first therefore reduces the mask
``support(P) -> {target}`` with

* 1 CNOT per tree edge whose child and parent both carry parity, and
* 2 CNOTs per edge into a parity-free relay qubit,

and the mirrored ladder restores everything — the circuit is connectivity-
legal *by construction*, needs no SWAPs, and leaves the qubit layout fixed
(identity permutation).  On an all-to-all topology every support qubit is the
target's neighbor, so the construction reduces exactly to the Fig. 3(b)
star template with its ``2 (w - 1)`` CNOTs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, _trusted_gate
from repro.circuits.pauli_exponential import ladder_exponential_gates, validate_target
from repro.hardware.topology import Topology
from repro.obs.tracer import get_tracer
from repro.operators import PauliString


def steiner_parent_map(
    topology: Topology, terminals: Sequence[int], root: int
) -> Dict[int, int]:
    """Parent pointers of the union-of-shortest-paths tree rooted at ``root``.

    Every terminal is connected to the root along the BFS shortest path of the
    topology; the union of those paths is a tree (each node keeps the single
    predecessor of the root's BFS), returned as a child-to-parent map over all
    tree nodes except the root.
    """
    topology.validate_qubit(root)
    predecessor = topology.predecessor_matrix
    parent: Dict[int, int] = {}
    for terminal in terminals:
        topology.validate_qubit(terminal)
        node = terminal
        while node != root and node not in parent:
            before = int(predecessor[root, node])
            if before < 0:
                raise ValueError(
                    f"qubit {terminal} cannot reach target {root} in "
                    f"topology {topology.name!r}"
                )
            parent[node] = before
            node = before
    return parent


def _steered_ladder(
    string: PauliString, topology: Topology, target: int
) -> List[Gate]:
    """The CNOT half-ladder reducing ``support(string)`` onto ``target``."""
    parent = steiner_parent_map(topology, string.support, target)
    depth = {target: 0}

    def node_depth(node: int) -> int:
        if node not in depth:
            depth[node] = node_depth(parent[node]) + 1
        return depth[node]

    order = sorted(parent, key=lambda node: (-node_depth(node), node))
    mask = set(string.support)
    ladder: List[Gate] = []
    for node in order:
        if node not in mask:
            continue
        up = parent[node]
        if up not in mask:
            ladder.append(_trusted_gate("CNOT", (up, node)))  # fold the relay in
            mask.add(up)
        ladder.append(_trusted_gate("CNOT", (node, up)))
        mask.remove(node)
    assert mask == {target}, "parity ladder failed to reduce onto the target"
    return ladder


def _routed_exponential_gates(
    string: PauliString,
    angle: float,
    topology: Topology,
    target: Optional[int] = None,
) -> List[Gate]:
    """Gate list of :func:`routed_pauli_exponential_circuit`."""
    if topology.n_qubits < string.n_qubits:
        raise ValueError(
            f"topology {topology.name!r} has {topology.n_qubits} qubits but "
            f"the Pauli string acts on {string.n_qubits}"
        )
    if string.is_identity:
        return []
    target = validate_target(string, target)
    ladder = _steered_ladder(string, topology, target)
    return ladder_exponential_gates(string, angle, target, ladder)


def routed_pauli_exponential_circuit(
    string: PauliString,
    angle: float,
    topology: Topology,
    target: Optional[int] = None,
) -> Circuit:
    """Synthesize ``exp(-i angle/2 · string)`` legally on ``topology``.

    The circuit acts on ``topology.n_qubits`` physical qubits with logical
    qubit ``q`` on physical qubit ``q`` (identity embedding); it contains only
    topology-edge CNOTs, and the layout after the circuit is unchanged.
    """
    return Circuit(
        topology.n_qubits, _routed_exponential_gates(string, angle, topology, target)
    )


def routed_pauli_exponential_cnot_count(
    string: PauliString, topology: Topology, target: Optional[int] = None
) -> int:
    """CNOT count of :func:`routed_pauli_exponential_circuit` (no synthesis)."""
    if string.is_identity:
        return 0
    target = validate_target(string, target)
    return 2 * len(_steered_ladder(string, topology, target))


def routed_exponential_sequence_circuit(
    sequence: Sequence[Tuple[PauliString, float, Optional[int]]],
    topology: Topology,
) -> Circuit:
    """Concatenated steered exponentials for ``(P, θ, target)`` terms.

    Linear in the gate count: the circuit is built once from one gate list.

    The result lives on the physical register and is connectivity-legal with
    the identity layout throughout; run
    :func:`repro.circuits.optimize_circuit` on it to realize the gate-level
    interface cancellations (the peephole pass only removes or merges gates,
    so legality is preserved).
    """
    with get_tracer().span(
        "hardware.steered_synthesis",
        topology=topology.name,
        n_terms=len(sequence),
        n_qubits=topology.n_qubits,
    ) as span:
        gates: List[Gate] = []
        for string, angle, target in sequence:
            gates.extend(_routed_exponential_gates(string, angle, topology, target))
        circuit = Circuit(topology.n_qubits, gates)
        span.set_attribute("n_gates", len(circuit))
    return circuit
