"""SWAP routing of circuits onto a device :class:`~repro.hardware.topology.Topology`.

:func:`route_circuit` implements a SABRE-style heuristic (Li, Ding & Xie,
ASPLOS 2019): gates execute as soon as their operands are adjacent on the
coupling graph; when the whole front layer is blocked, one SWAP is inserted,
chosen among the edges incident to the blocked gates' qubits by a score that
sums the front-layer distances plus a decayed lookahead over the next
two-qubit gates.  A stall counter forces shortest-path progress on the oldest
blocked gate if the heuristic ping-pongs, so routing always terminates.

Guarantees (covered by tests/hardware/test_routing.py):

* every two-qubit gate of the routed circuit lies on a topology edge;
* the routed circuit equals the original up to the reported logical-to-
  physical permutation (``RoutingResult.undo_permutation_circuit`` closes the
  loop exactly);
* the result is a deterministic function of ``(circuit, topology, seed,
  initial_layout, lookahead)`` — ties between equal-score SWAPs are broken by
  the seeded generator, everything else is order-deterministic.

:func:`naive_route_circuit` is the reference nearest-neighbour strategy (swap
the control next to the target along a shortest path, execute, swap back); it
restores the identity permutation after every gate and serves as the
routing-overhead baseline in ``benchmarks/bench_routing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, cnot
from repro.hardware.topology import Topology
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

#: CNOTs per SWAP under the CNOT + single-qubit gate set.
SWAP_CNOT_COST = 3

#: Router traffic across every strategy (SABRE and naive), in the global
#: obs registry: how many circuits were routed and how many SWAPs that cost.
_ROUTE_CALLS = get_metrics().counter("hardware.route.calls")
_ROUTE_SWAPS = get_metrics().counter("hardware.route.swaps")


def decompose_swaps(circuit: Circuit) -> Circuit:
    """Replace every SWAP gate by its three-CNOT realization."""
    out = Circuit(circuit.n_qubits)
    for gate in circuit:
        if gate.name == "SWAP":
            a, b = gate.qubits
            out.extend([cnot(a, b), cnot(b, a), cnot(a, b)])
        else:
            out.append(gate)
    return out


@dataclass(frozen=True)
class RoutingMetrics:
    """Hashable summary of one routing run (attached to ``CompileResult``).

    Counts and depths are measured on the SWAP-decomposed circuit, so
    ``cnot_count`` is directly comparable with the Table-I numbers.
    """

    topology: str
    n_swaps: int
    cnot_count: int
    depth: int
    two_qubit_depth: int
    gate_histogram: Tuple[Tuple[str, int], ...]


@dataclass
class RoutingResult:
    """A routed circuit plus the layout bookkeeping needed to verify it.

    ``initial_layout`` / ``final_layout`` map logical qubit ``q`` to the
    physical qubit holding it before / after the routed circuit runs.
    """

    circuit: Circuit
    topology: Topology
    initial_layout: Tuple[int, ...]
    final_layout: Tuple[int, ...]
    n_swaps: int

    @property
    def initial_inverse_layout(self) -> Tuple[int, ...]:
        """Physical-to-logical map before the circuit runs (``-1``: unoccupied)."""
        return _inverse_layout(self.initial_layout, self.topology.n_qubits)

    @property
    def final_inverse_layout(self) -> Tuple[int, ...]:
        """Physical-to-logical map after the circuit runs (``-1``: unoccupied)."""
        return _inverse_layout(self.final_layout, self.topology.n_qubits)

    def decomposed(self) -> Circuit:
        """The routed circuit with SWAPs expanded into CNOT triples."""
        return decompose_swaps(self.circuit)

    @property
    def routed_cnot_count(self) -> int:
        """CNOT count with every SWAP charged at three CNOTs."""
        return self.circuit.cnot_count + SWAP_CNOT_COST * self.n_swaps

    def metrics(self) -> RoutingMetrics:
        decomposed = self.decomposed()
        return RoutingMetrics(
            topology=self.topology.name,
            n_swaps=self.n_swaps,
            cnot_count=decomposed.cnot_count,
            depth=decomposed.depth(),
            two_qubit_depth=decomposed.two_qubit_depth(),
            gate_histogram=tuple(sorted(decomposed.gate_histogram().items())),
        )

    def undo_permutation_circuit(self) -> Circuit:
        """SWAP gates returning every logical qubit to its initial position.

        Composing ``circuit + undo_permutation_circuit()`` yields a circuit
        that equals the original (embedded on the physical register) exactly;
        the SWAPs here ignore connectivity — they exist for verification, not
        for execution.
        """
        n = self.circuit.n_qubits
        holder: Dict[int, Optional[int]] = {p: None for p in range(n)}
        position: Dict[int, int] = {}
        for logical, physical in enumerate(self.final_layout):
            holder[physical] = logical
            position[logical] = physical
        undo = Circuit(n)
        for logical, wanted in enumerate(self.initial_layout):
            current = position[logical]
            if current == wanted:
                continue
            undo.append(Gate("SWAP", (current, wanted)))
            displaced = holder[wanted]
            holder[wanted], holder[current] = logical, displaced
            position[logical] = wanted
            if displaced is not None:
                position[displaced] = current
        return undo


def _inverse_layout(layout: Sequence[int], n_physical: int) -> Tuple[int, ...]:
    """Invert a logical-to-physical layout; unoccupied physicals map to ``-1``."""
    inverse = [-1] * n_physical
    for logical, physical in enumerate(layout):
        inverse[physical] = logical
    return tuple(inverse)


def _resolve_layout(
    n_logical: int, n_physical: int, initial_layout: Optional[Sequence[int]]
) -> List[int]:
    if initial_layout is None:
        return list(range(n_logical))
    layout = [int(p) for p in initial_layout]
    if len(layout) != n_logical:
        raise ValueError(
            f"initial_layout must place all {n_logical} logical qubits, "
            f"got {len(layout)} entries"
        )
    if len(set(layout)) != len(layout) or any(
        not (0 <= p < n_physical) for p in layout
    ):
        raise ValueError(
            f"initial_layout {layout} is not an injection into "
            f"{n_physical} physical qubits"
        )
    return layout


def route_circuit(
    circuit: Circuit,
    topology: Topology,
    seed: Optional[int] = 0,
    lookahead: int = 20,
    lookahead_weight: float = 0.5,
    initial_layout: Optional[Sequence[int]] = None,
    max_stall: Optional[int] = None,
) -> RoutingResult:
    """Route a circuit onto a topology with SABRE-style SWAP insertion.

    Parameters
    ----------
    circuit:
        The logical circuit; ``circuit.n_qubits`` must fit in the topology.
    topology:
        The target coupling graph (must be connected).
    seed:
        Seeds the tie-breaking generator; a fixed seed makes routing fully
        deterministic.  ``None`` falls back to seed 0 (routing never draws
        from entropy).
    lookahead:
        Number of upcoming two-qubit gates scored beyond the front layer.
    lookahead_weight:
        Relative weight of the lookahead term in the SWAP score.
    initial_layout:
        Logical-to-physical placement; identity when omitted.
    max_stall:
        SWAPs tolerated without executing a gate before the router forces
        shortest-path progress on the oldest blocked gate (a termination
        guarantee, rarely triggered).
    """
    with get_tracer().span(
        "hardware.route",
        strategy="sabre",
        topology=topology.name,
        n_gates=len(circuit.gates),
    ) as route_span:
        result = _route_circuit_sabre(
            circuit,
            topology,
            seed=seed,
            lookahead=lookahead,
            lookahead_weight=lookahead_weight,
            initial_layout=initial_layout,
            max_stall=max_stall,
        )
        route_span.set_attribute("n_swaps", result.n_swaps)
    _ROUTE_CALLS.inc()
    _ROUTE_SWAPS.inc(result.n_swaps)
    return result


def _route_circuit_sabre(
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


def naive_route_circuit(
    circuit: Circuit,
    topology: Topology,
    initial_layout: Optional[Sequence[int]] = None,
) -> RoutingResult:
    """Nearest-neighbour reference router: swap in, execute, swap back.

    Every two-qubit gate on non-adjacent qubits swaps its first operand along
    a shortest path until adjacent, executes, then reverses the swaps, so the
    layout (and hence the permutation) is restored after every gate.  This is
    the textbook ladder-routing bound that
    :func:`repro.hardware.synthesis.routed_pauli_exponential_circuit` and
    :func:`route_circuit` are measured against.
    """
    with get_tracer().span(
        "hardware.route",
        strategy="naive",
        topology=topology.name,
        n_gates=len(circuit.gates),
    ) as route_span:
        result = _naive_route_circuit(circuit, topology, initial_layout)
        route_span.set_attribute("n_swaps", result.n_swaps)
    _ROUTE_CALLS.inc()
    _ROUTE_SWAPS.inc(result.n_swaps)
    return result


def _naive_route_circuit(
    circuit: Circuit,
    topology: Topology,
    initial_layout: Optional[Sequence[int]],
) -> RoutingResult:
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
    routed = Circuit(n_physical)
    n_swaps = 0
    for gate in circuit:
        if gate.is_single_qubit:
            routed.append(Gate(gate.name, (layout[gate.qubits[0]],), gate.parameter))
            continue
        a, b = layout[gate.qubits[0]], layout[gate.qubits[1]]
        path = topology.shortest_path(a, b)
        swaps = [(path[i], path[i + 1]) for i in range(len(path) - 2)]
        for edge in swaps:
            routed.append(Gate("SWAP", edge))
        front = path[-2] if swaps else a
        routed.append(Gate(gate.name, (front, b), gate.parameter))
        for edge in reversed(swaps):
            routed.append(Gate("SWAP", edge))
        n_swaps += 2 * len(swaps)
    return RoutingResult(
        circuit=routed,
        topology=topology,
        initial_layout=initial,
        final_layout=initial,
        n_swaps=n_swaps,
    )
