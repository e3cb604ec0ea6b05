"""SWAP routing of circuits onto a device :class:`~repro.hardware.topology.Topology`.

:func:`route_circuit` implements a SABRE-style heuristic (Li, Ding & Xie,
ASPLOS 2019): gates execute as soon as their operands are adjacent on the
coupling graph; when the whole front layer is blocked, one SWAP is inserted,
chosen among the edges incident to the blocked gates' qubits by a score that
sums the front-layer distances plus a decayed lookahead over the next
two-qubit gates.  A stall counter forces shortest-path progress on the oldest
blocked gate if the heuristic ping-pongs, so routing always terminates.

The router keeps its state between SWAPs: the front layer, the oldest
blocked gate and the lookahead window are rebuilt only after a gate
executes, and a SWAP re-checks only the blocked gates on its two qubits.
Every SWAP re-sums the whole score over the front and window; re-summing
only the pairs a candidate touches (delta scoring) was measured slower,
since the front and window hold only a few pairs.

Guarantees (covered by tests/hardware/test_routing.py):

* every two-qubit gate of the routed circuit lies on a topology edge;
* the routed circuit equals the original up to the reported logical-to-
  physical permutation (``RoutingResult.undo_permutation_circuit`` closes the
  loop exactly);
* the result is a deterministic function of ``(circuit, topology, seed,
  initial_layout, lookahead, lookahead_weight, max_stall)`` — ties between
  equal-score SWAPs are broken by the seeded generator, everything else is
  order-deterministic (tests/hardware/test_sabre_differential.py pins it to
  a from-scratch formulation, result for result).

:func:`naive_route_circuit` is the reference nearest-neighbour strategy (swap
the control next to the target along a shortest path, execute, swap back); it
restores the identity permutation after every gate and serves as the
routing-overhead baseline in ``benchmarks/bench_routing.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, _trusted_gate
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
            forward = _trusted_gate("CNOT", (a, b))
            out.extend([forward, _trusted_gate("CNOT", (b, a)), forward])
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
        Number of upcoming two-qubit gates scored beyond the front layer
        (``0``: the front layer only).  Must be non-negative.
    lookahead_weight:
        Relative weight of the lookahead term in the SWAP score; finite and
        non-negative.
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
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")
    if not (math.isfinite(lookahead_weight) and lookahead_weight >= 0):
        raise ValueError(
            f"lookahead_weight must be finite and >= 0, got {lookahead_weight}"
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
    # Coupling read once: a neighbor set per physical qubit for the
    # executability test, and its sorted incident edges for the candidates.
    neighbors = [topology.neighbors(p) for p in range(n_physical)]
    adjacent = [set(ns) for ns in neighbors]
    incident = [
        tuple((min(p, q), max(p, q)) for q in ns) for p, ns in enumerate(neighbors)
    ]
    if max_stall is None:
        max_stall = max(4, 2 * n_physical)

    gates = list(circuit.gates)
    operands = [gate.qubits for gate in gates]
    n_gates = len(gates)
    successors: List[List[int]] = [[] for _ in range(n_gates)]
    indegree = [0] * n_gates
    last_on_qubit: Dict[int, int] = {}
    for index, qubits in enumerate(operands):
        for qubit in qubits:
            previous = last_on_qubit.get(qubit)
            if previous is not None:
                successors[previous].append(index)
                indegree[index] += 1
            last_on_qubit[qubit] = index

    routed: List[Gate] = []
    executed = 0
    n_swaps = 0
    stall = 0
    last_swap: Optional[Tuple[int, int]] = None
    # Released gates still blocked; a gate leaves only by executing.
    waiting = set()
    released = [i for i in range(n_gates) if indegree[i] == 0]

    # The unexecuted two-qubit gates in index order (an executed one is
    # deleted): the lookahead window is their first `lookahead` entries
    # outside the front, all within the first `lookahead + len(front)`.
    pending = [i for i, qubits in enumerate(operands) if len(qubits) == 2]

    rebuild = True
    while True:
        # A gate blocked in one pass stays blocked until the next SWAP, so
        # each pass checks only what the previous pass (or the SWAP) freed,
        # in index order, which emits exactly what a full rescan would.
        while released:
            freed = []
            for index in released:
                qubits = operands[index]
                if len(qubits) == 1:
                    physical = (layout[qubits[0]],)
                else:
                    physical = (layout[qubits[0]], layout[qubits[1]])
                    if physical[1] not in adjacent[physical[0]]:
                        waiting.add(index)
                        continue
                    waiting.discard(index)
                    del pending[bisect_left(pending, index)]
                gate = gates[index]
                routed.append(_trusted_gate(gate.name, physical, gate.parameter))
                indegree[index] = -1  # sentinel: executed
                for successor in successors[index]:
                    indegree[successor] -= 1
                    if indegree[successor] == 0:
                        freed.append(successor)
                executed += 1
                rebuild = True
            released = sorted(freed)
        if executed == n_gates:
            break

        if rebuild:
            # Front, oldest blocked gate and lookahead window change only
            # when a gate executes; between SWAPs only their images move.
            rebuild = False
            stall = 0
            last_swap = None
            front = sorted(waiting)
            front_logical = [operands[i] for i in front]
            window = [i for i in pending[: lookahead + len(front)] if i not in waiting]
            window_logical = [operands[i] for i in window[:lookahead]]

        if stall >= max_stall:
            # Forced progress: walk the oldest blocked gate's control one
            # step along a shortest path toward its target.
            control, target = front_logical[0]
            path = topology.shortest_path(layout[control], layout[target])
            swap = (path[0], path[1])
        else:
            front_pairs = [(layout[p], layout[q]) for p, q in front_logical]
            window_pairs = [(layout[p], layout[q]) for p, q in window_logical]
            candidates = sorted(
                {edge for pair in front_pairs for p in pair for edge in incident[p]}
            )
            if last_swap in candidates and len(candidates) > 1:
                candidates.remove(last_swap)  # never undo the SWAP just inserted
            # Hops after each SWAP; int sums are exact, so the scores (and the
            # tie sets and seeded draws) match per-pair float sums bit for bit.
            # Re-summing only the pairs a SWAP touches was measured slower:
            # the front and window hold only a few pairs.
            scores = []
            for a, b in candidates:
                moved[a], moved[b] = b, a
                cost = float(
                    sum([distance[moved[p]][moved[q]] for p, q in front_pairs])
                )
                if window_pairs:
                    ahead = float(
                        sum([distance[moved[p]][moved[q]] for p, q in window_pairs])
                    )
                    cost += lookahead_weight * ahead / len(window_pairs)
                moved[a], moved[b] = a, b
                scores.append(cost)
            # Builtin min/list comprehension instead of np.argmin-style
            # reductions on a small Python list; the tie set and the seeded
            # tie-break draw are unchanged.
            minimum = min(scores)
            best = [i for i, value in enumerate(scores) if value == minimum]
            swap = candidates[best[0] if len(best) == 1 else int(rng.choice(best))]

        a, b = swap
        routed.append(_trusted_gate("SWAP", swap))
        logical_a, logical_b = inverse[a], inverse[b]
        if logical_a >= 0:
            layout[logical_a] = b
        if logical_b >= 0:
            layout[logical_b] = a
        inverse[a], inverse[b] = logical_b, logical_a
        n_swaps += 1
        stall += 1
        last_swap = swap
        # Only the blocked gates on the two swapped qubits can have become
        # executable.
        released = [
            i for i, qubits in zip(front, front_logical)
            if logical_a in qubits or logical_b in qubits
        ]

    return RoutingResult(
        circuit=Circuit(n_physical, routed),
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
