"""Simulation-engine benchmark: tensor-contraction vs the legacy embed engine.

Where ``perfbench`` measures compile latency, this harness measures the
**verification** core — dense unitary construction and statevector
application, the operations every differential harness, hypothesis suite and
golden check in this repo runs through — and pins the tensor-contraction
engine's speedup in CI:

* ``unitary_build`` — ``Circuit.to_unitary`` on a 10-qubit, 200-gate circuit:
  the seed's per-gate ``_embed`` + dense-matmul engine (a faithful copy kept
  below) vs the fused tensordot engine.  The circuit draws only from gates
  whose matrix entries lie in ``{0, ±1, ±i}``, so every intermediate product
  is exact and the two engines must agree **bit-identically**; the enforced
  floor is a >= 10x speedup.
* ``generic_engine`` — an 8-qubit circuit including H and rotations:
  unitaries agree to 1e-10 and the statevector paths have fidelity 1.
* ``statevector_apply`` — ``apply_to_statevector`` vs multiplying by the
  legacy dense unitary.
* ``metric_caching`` — warm vs cold ``depth``/``two_qubit_depth``/
  ``gate_histogram``/``cnot_count`` on a routed-size circuit (the memoized
  metrics RoutingMetrics and run_table1 hammer).

Results are written to ``BENCH_sim.json`` (uploaded as a CI artifact) so the
verification-latency trajectory stays visible across PRs.

Usage:
    PYTHONPATH=src python benchmarks/bench_sim.py [--output BENCH_sim.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.circuits import Circuit, Gate

#: Enforced speedup floor: tensor engine vs legacy embed engine, 10q/200g unitary.
UNITARY_SPEEDUP_FLOOR = 10.0

#: Gates whose matrix entries lie in {0, ±1, ±i}: all products are exactly
#: representable and every GEMM sum has a single non-zero term, so the legacy
#: and tensor engines must produce bit-identical unitaries.
EXACT_SINGLE_QUBIT = ["X", "Y", "Z", "S", "SDG"]
EXACT_TWO_QUBIT = ["CNOT", "CZ", "SWAP"]


# ----------------------------------------------------------------------
# The seed simulation engine: every gate embedded into a dense 2**n x 2**n
# matrix by pure-Python bit loops, composed by full dense matmuls.  A
# faithful copy of the seed ``Circuit._embed`` / ``Circuit.to_unitary``,
# kept as the "before" half of the comparison.
# ----------------------------------------------------------------------
def legacy_embed(n_qubits: int, gate: Gate) -> np.ndarray:
    """Embed a gate matrix into the full register (seed implementation)."""
    dim = 2 ** n_qubits
    small = gate.matrix()
    k = len(gate.qubits)
    embedded = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        bits = [(basis >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        col_sub = 0
        for q in gate.qubits:
            col_sub = (col_sub << 1) | bits[q]
        for row_sub in range(2 ** k):
            amplitude = small[row_sub, col_sub]
            if amplitude == 0:
                continue
            new_bits = list(bits)
            for position, q in enumerate(gate.qubits):
                new_bits[q] = (row_sub >> (k - 1 - position)) & 1
            row = 0
            for q in range(n_qubits):
                row = (row << 1) | new_bits[q]
            embedded[row, basis] += amplitude
    return embedded


def legacy_to_unitary(circuit: Circuit) -> np.ndarray:
    """Seed ``Circuit.to_unitary``: one embedded matrix + dense matmul per gate."""
    dim = 2 ** circuit.n_qubits
    unitary = np.eye(dim, dtype=complex)
    for gate in circuit:
        unitary = legacy_embed(circuit.n_qubits, gate) @ unitary
    return unitary


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def best_of(repeats: int, function) -> float:
    """Best wall time of ``repeats`` runs (minimizes scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def exact_gate_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    """Random circuit over the exact-entry gate set (bit-identical engines)."""
    rng = np.random.default_rng(seed)
    gates: List[Gate] = []
    for _ in range(n_gates):
        if rng.random() < 0.5:
            name = EXACT_SINGLE_QUBIT[int(rng.integers(len(EXACT_SINGLE_QUBIT)))]
            gates.append(Gate(name, (int(rng.integers(n_qubits)),)))
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            name = EXACT_TWO_QUBIT[int(rng.integers(len(EXACT_TWO_QUBIT)))]
            gates.append(Gate(name, (int(a), int(b))))
    return Circuit(n_qubits, gates)


def generic_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    """Random circuit including H and rotations (allclose-level agreement)."""
    rng = np.random.default_rng(seed)
    gates: List[Gate] = []
    for _ in range(n_gates):
        draw = rng.random()
        if draw < 0.35:
            gates.append(Gate("H", (int(rng.integers(n_qubits)),)))
        elif draw < 0.65:
            name = ["RZ", "RX", "RY"][int(rng.integers(3))]
            gates.append(Gate(name, (int(rng.integers(n_qubits)),), float(rng.normal())))
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(a), int(b))))
    return Circuit(n_qubits, gates)


def bench_unitary_build(repeats: int) -> Dict[str, object]:
    """Legacy embed engine vs tensor engine, 10 qubits / 200 gates, bit-identical."""
    circuit = exact_gate_circuit(10, 200, seed=7)
    tensor_unitary = circuit.to_unitary()

    start = time.perf_counter()
    legacy_unitary = legacy_to_unitary(circuit)  # ~25s — timed once, not best-of
    legacy_s = time.perf_counter() - start

    identical = np.array_equal(legacy_unitary, tensor_unitary)
    assert identical, "tensor engine diverged bit-identically from the seed engine"
    tensor_s = best_of(repeats, circuit.to_unitary)
    return {
        "n_qubits": circuit.n_qubits,
        "n_gates": len(circuit),
        "legacy_s": legacy_s,
        "tensor_s": tensor_s,
        "speedup": legacy_s / tensor_s,
        "bit_identical": identical,
    }


def bench_generic_engine(repeats: int) -> Dict[str, object]:
    """Generic (H/rotation) circuit: engines agree numerically, fidelity 1."""
    circuit = generic_circuit(8, 160, seed=11)
    legacy_unitary = legacy_to_unitary(circuit)
    tensor_unitary = circuit.to_unitary()
    max_error = float(np.abs(legacy_unitary - tensor_unitary).max())
    assert max_error < 1e-10, f"engines disagree by {max_error}"

    rng = np.random.default_rng(3)
    probe = rng.normal(size=2 ** circuit.n_qubits) + 1j * rng.normal(
        size=2 ** circuit.n_qubits
    )
    probe /= np.linalg.norm(probe)
    via_legacy = legacy_unitary @ probe
    via_tensor = circuit.apply_to_statevector(probe)
    fidelity = float(abs(np.vdot(via_legacy, via_tensor)) ** 2)
    assert abs(fidelity - 1.0) < 1e-10, f"statevector fidelity {fidelity}"

    return {
        "n_qubits": circuit.n_qubits,
        "n_gates": len(circuit),
        "max_unitary_error": max_error,
        "statevector_fidelity": fidelity,
        "tensor_unitary_s": best_of(repeats, circuit.to_unitary),
        "statevector_apply_s": best_of(
            repeats, lambda: circuit.apply_to_statevector(probe)
        ),
    }


def bench_metric_caching(repeats: int) -> Dict[str, object]:
    """Cold vs warm circuit metrics on a routed-size circuit."""
    circuit = exact_gate_circuit(12, 2000, seed=5)

    def all_metrics(target: Circuit):
        return (
            target.cnot_count,
            target.depth(),
            target.two_qubit_depth(),
            target.gate_histogram(),
        )

    # Fresh (empty-cache) circuits prepared outside the timed region, so
    # cold_s measures only the metric walks, not circuit.copy() overhead.
    fresh = [circuit.copy() for _ in range(repeats)]

    def cold():
        return all_metrics(fresh.pop())

    circuit_warm = circuit.copy()
    all_metrics(circuit_warm)
    cold_s = best_of(repeats, cold)
    warm_s = best_of(repeats, lambda: all_metrics(circuit_warm))
    return {
        "n_gates": len(circuit),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sim.json",
    )
    args = parser.parse_args()

    unitary = bench_unitary_build(args.repeats)
    results = {
        "config": {
            "repeats": args.repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "floors": {"unitary_build_speedup": UNITARY_SPEEDUP_FLOOR},
        },
        "unitary_build": unitary,
        "generic_engine": bench_generic_engine(args.repeats),
        "metric_caching": bench_metric_caching(args.repeats),
    }

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(
        f"\nunitary build 10q/200g: {unitary['speedup']:.1f}x "
        f"(floor {UNITARY_SPEEDUP_FLOOR:.0f}x), bit-identical"
    )
    ok = unitary["speedup"] >= UNITARY_SPEEDUP_FLOOR
    print(f"speedup floors: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
