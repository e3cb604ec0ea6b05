"""The SABRE router as it stood before its state was kept across SWAPs.

This is the straightforward formulation: after every SWAP it re-scans the
whole ready set, and rebuilds the front-layer pairs, the lookahead window and
the candidate SWAPs from scratch. It is kept verbatim as the oracle for the
differential tests in ``test_sabre_differential.py``: the incremental router
in :mod:`repro.hardware.routing` must return the same routed gates, SWAP
count and layouts for every input. Two deliberate fixes are the exception,
and the tests stay off them: ``lookahead=0`` scored one lookahead gate here
(it means "front layer only" in the library), and a non-finite or negative
``lookahead_weight`` was not rejected.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.hardware.routing import RoutingResult, _inverse_layout, _resolve_layout
from repro.hardware.topology import Topology


def reference_route_circuit_sabre(
    circuit: Circuit,
    topology: Topology,
    seed: Optional[int],
    lookahead: int,
    lookahead_weight: float,
    initial_layout: Optional[Sequence[int]],
    max_stall: Optional[int],
) -> RoutingResult:
    """The SABRE heuristic itself (tracing and accounting live in route_circuit)."""
    n_logical = circuit.n_qubits
    n_physical = topology.n_qubits
    if n_physical < n_logical:
        raise ValueError(
            f"topology {topology.name!r} has {n_physical} qubits but the "
            f"circuit needs {n_logical}"
        )
    topology.require_connected()
    layout = _resolve_layout(n_logical, n_physical, initial_layout)
    initial = tuple(layout)
    # Inverse layout (physical -> logical, -1 when unoccupied), maintained
    # alongside `layout` so applying a SWAP is O(1) instead of two O(n)
    # scans over the full layout.
    inverse = list(_inverse_layout(layout, n_physical))
    rng = np.random.default_rng(0 if seed is None else seed)
    # Nested lists: the SWAP score reads ~10^5 hop counts per circuit, and a
    # list index is far cheaper than a numpy scalar lookup.
    distance = topology.distance_matrix.tolist()
    moved = list(range(n_physical))
    if max_stall is None:
        max_stall = max(4, 2 * n_physical)

    gates = list(circuit.gates)
    n_gates = len(gates)
    successors: List[List[int]] = [[] for _ in range(n_gates)]
    indegree = [0] * n_gates
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(gates):
        for qubit in gate.qubits:
            previous = last_on_qubit.get(qubit)
            if previous is not None:
                successors[previous].append(index)
                indegree[index] += 1
            last_on_qubit[qubit] = index
    ready = sorted(i for i in range(n_gates) if indegree[i] == 0)

    routed = Circuit(n_physical)
    executed = 0
    n_swaps = 0
    stall = 0
    last_swap: Optional[Tuple[int, int]] = None

    def emit(index: int) -> None:
        gate = gates[index]
        routed.append(
            Gate(gate.name, tuple(layout[q] for q in gate.qubits), gate.parameter)
        )

    def release(index: int) -> None:
        for successor in successors[index]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)

    # Static order of two-qubit gates plus a monotone cursor past the
    # executed prefix, so collecting the lookahead window no longer rescans
    # every gate of the circuit per inserted SWAP.
    two_qubit_order = [i for i, gate in enumerate(gates) if gate.is_two_qubit]
    two_qubit_cursor = 0

    def lookahead_window() -> List[int]:
        nonlocal two_qubit_cursor
        while (
            two_qubit_cursor < len(two_qubit_order)
            and indegree[two_qubit_order[two_qubit_cursor]] < 0
        ):
            two_qubit_cursor += 1
        window = []
        blocked = set(ready)
        for position in range(two_qubit_cursor, len(two_qubit_order)):
            index = two_qubit_order[position]
            if indegree[index] < 0 or index in blocked:
                continue
            window.append(index)
            if len(window) >= lookahead:
                break
        return window

    def apply_swap(edge: Tuple[int, int]) -> None:
        nonlocal n_swaps, stall, last_swap
        a, b = edge
        routed.append(Gate("SWAP", (a, b)))
        logical_a, logical_b = inverse[a], inverse[b]
        if logical_a >= 0:
            layout[logical_a] = b
        if logical_b >= 0:
            layout[logical_b] = a
        inverse[a], inverse[b] = logical_b, logical_a
        n_swaps += 1
        stall += 1
        last_swap = edge

    while executed < n_gates:
        progressed = True
        while progressed:
            progressed = False
            for index in sorted(ready):
                gate = gates[index]
                runnable = gate.is_single_qubit or topology.is_edge(
                    layout[gate.qubits[0]], layout[gate.qubits[1]]
                )
                if runnable:
                    emit(index)
                    ready.remove(index)
                    indegree[index] = -1  # sentinel: executed
                    release(index)
                    executed += 1
                    progressed = True
                    stall = 0
                    last_swap = None
        if executed == n_gates:
            break

        front = sorted(ready)
        if stall >= max_stall:
            # Forced progress: walk the oldest blocked gate's control one
            # step along a shortest path toward its target.
            gate = gates[front[0]]
            path = topology.shortest_path(
                layout[gate.qubits[0]], layout[gate.qubits[1]]
            )
            apply_swap((path[0], path[1]))
            continue

        front_pairs = [
            (layout[gates[i].qubits[0]], layout[gates[i].qubits[1]]) for i in front
        ]
        window = lookahead_window()
        window_pairs = [
            (layout[gates[i].qubits[0]], layout[gates[i].qubits[1]]) for i in window
        ]
        candidates = sorted(
            {
                tuple(sorted((p, neighbor)))
                for pair in front_pairs
                for p in pair
                for neighbor in topology.neighbors(p)
            }
        )
        if last_swap in candidates and len(candidates) > 1:
            candidates.remove(last_swap)  # never undo the SWAP just inserted

        def score(edge: Tuple[int, int]) -> float:
            # Hops after the SWAP; int sums are exact, so the scores (and the
            # tie sets and seeded draws) match per-pair float sums bit for bit.
            a, b = edge
            moved[a], moved[b] = b, a
            front_cost = float(
                sum(distance[moved[p]][moved[q]] for p, q in front_pairs)
            )
            if window_pairs:
                ahead = float(
                    sum(distance[moved[p]][moved[q]] for p, q in window_pairs)
                )
                front_cost += lookahead_weight * ahead / len(window_pairs)
            moved[a], moved[b] = a, b
            return front_cost

        # Builtin min/list comprehension instead of np.argmin-style reductions
        # on a small Python list (the ndarray conversion costs more than the
        # scan); the tie set and the seeded tie-break draw are unchanged.
        scores = [score(edge) for edge in candidates]
        minimum = min(scores)
        best = [i for i, value in enumerate(scores) if value == minimum]
        choice = best[0] if len(best) == 1 else int(rng.choice(best))
        apply_swap(candidates[choice])

    return RoutingResult(
        circuit=routed,
        topology=topology,
        initial_layout=initial,
        final_layout=tuple(layout),
        n_swaps=n_swaps,
    )
