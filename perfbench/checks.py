"""Correctness checks and the per-input ledger over a run's outputs.

Every distinct compile (request fingerprint x backend) the workload produced
is checked once, and every later occurrence of it (another pass, another
service tier) must carry the same result:

* every backend's reported count equals the analytic ``sequence_cnot_count``
  of its compiled sequence, plus the certified bosonic and hybrid segment
  costs where the flow compresses terms;
* the advanced compile's ``(P, θ)`` multiset equals
  ``terms_to_rotations(fermionic_terms, LinearEncodingTransform(gamma))``,
  recomputed here;
* the synthesized advanced fermionic circuit passes
  ``repro.verify.assert_implements_rotations`` against its compiled sequence;
* repeated occurrences (passes, service tiers) match the first one exactly.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import CompileRequest, CompileResult, compiled_rotation_sequence
from repro.circuits import Circuit, sequence_cnot_count
from repro.core.terms_to_paulis import terms_to_rotations
from repro.transforms import LinearEncodingTransform
from repro.verify import EquivalenceReport, assert_implements_rotations

from workloads import BACKENDS, Job, rotation_pairs

VERIFY_ENGINES = ("pauli", "dense", "tableau", "sparse")


def signature(result: CompileResult) -> Tuple:
    """What must be identical wherever the same compile is served from."""
    key: Tuple = (
        result.backend,
        result.cnot_count,
        tuple(sorted(result.breakdown.items())),
    )
    if result.backend == "advanced":
        key += (
            tuple(
                (rotation.string, rotation.angle, target)
                for rotation, target in result.details.sorting.ordered_rotations
            ),
        )
    elif result.backend == "baseline":
        key += (tuple(result.details.ordered_exponentials),)
    return key


def count_problem(result: CompileResult, request: CompileRequest) -> Optional[str]:
    """Reported count vs the analytic count of the compiled sequence."""
    sequence = compiled_rotation_sequence(result, request.terms)
    analytic = sequence_cnot_count([(string, target) for string, _, target in sequence])
    if result.backend == "advanced":
        analytic += result.details.bosonic_cnot_count + result.details.hybrid_cnot_count
    elif result.backend == "baseline":
        analytic += result.details.bosonic_cnot_count
    if analytic != result.cnot_count:
        return f"{result.backend}: reports {result.cnot_count} CNOTs, sequence costs {analytic}"
    return None


def multiset_problem(result: CompileResult) -> Optional[str]:
    """Compiled rotations vs the fermionic terms re-expanded under the chosen Γ."""
    details = result.details
    expected = Counter(
        (rotation.string, rotation.angle)
        for rotation in terms_to_rotations(
            details.fermionic_terms, LinearEncodingTransform(details.gamma)
        )
    )
    actual = Counter(
        (rotation.string, rotation.angle)
        for rotation, _ in details.sorting.ordered_rotations
    )
    if expected != actual:
        return "advanced: compiled (P, θ) multiset differs from terms_to_rotations under Γ"
    return None


@dataclass
class Output:
    """One distinct compile and what the checks found about it."""

    request: CompileRequest
    result: CompileResult
    signature: Tuple
    problems: List[str] = field(default_factory=list)
    circuit: Optional[Circuit] = None
    verify_report: Optional[EquivalenceReport] = None
    route_swaps: Optional[int] = None


class Ledger:
    """Checks outputs as jobs are added and totals the per-input counts."""

    def __init__(self):
        self.outputs: Dict[Tuple, Output] = {}
        #: row label (grid cell / sweep step / service request) -> jobs
        self.labels: Dict[Tuple, List[Job]] = {}

    def add(self, job: Job) -> None:
        if job.error is not None:
            return
        self.labels.setdefault(job.key, []).append(job)
        for backend, result in job.results.items():
            key = (job.request.fingerprint, backend)
            output = self.outputs.get(key)
            if output is None:
                self.outputs[key] = self._check(job, result)
                continue
            if signature(result) != output.signature:
                output.problems.append(f"{backend}: result differs between occurrences")
            if backend == "advanced" and job.route_swaps != output.route_swaps:
                output.problems.append("advanced: SABRE swap count differs between passes")
            if job.verify_error is not None:
                output.problems.append(job.verify_error)

    def _check(self, job: Job, result: CompileResult) -> Output:
        output = Output(job.request, result, signature(result))
        problem = count_problem(result, job.request)
        if problem:
            output.problems.append(problem)
        if result.backend != "advanced":
            return output
        problem = multiset_problem(result)
        if problem:
            output.problems.append(problem)
        output.route_swaps = job.route_swaps
        output.circuit = job.circuit
        if output.circuit is None:
            output.circuit = result.details.fermionic_circuit()
        if job.verify_error is not None:
            output.problems.append(job.verify_error)
        elif job.verify_report is not None:
            output.verify_report = job.verify_report
        else:
            try:
                output.verify_report = assert_implements_rotations(
                    output.circuit, rotation_pairs(result)
                )
            except AssertionError as exc:
                output.problems.append(str(exc))
        return output

    # ------------------------------------------------------------------
    @property
    def checked(self) -> int:
        return len(self.outputs)

    @property
    def verified(self) -> int:
        return sum(1 for output in self.outputs.values() if not output.problems)

    def problems(self) -> List[str]:
        return [problem for output in self.outputs.values() for problem in output.problems]

    def _inputs(self) -> Dict[Tuple, Dict[str, Output]]:
        """Request fingerprint -> backend -> output."""
        inputs: Dict[Tuple, Dict[str, Output]] = {}
        for (fingerprint, backend), output in self.outputs.items():
            inputs.setdefault(fingerprint, {})[backend] = output
        return inputs

    def counts(self) -> Dict[str, float]:
        """Count metrics summed over the workload's distinct inputs."""
        totals: Dict[str, float] = {
            name: 0
            for name in (
                "advanced_cnots",
                "core.advanced_loss_cells",
                "core.compressed_terms",
                "core.rotations",
                "advanced.cnots.bosonic",
                "advanced.cnots.hybrid",
                "advanced.cnots.fermionic",
                "stage.degraded",
                "circuits.gates",
                "circuits.two_qubit_depth",
                "hardware.route.swaps",
                *(f"cnots.{name}" for name in BACKENDS if name != "advanced"),
                *(f"verify.engine.{engine}" for engine in VERIFY_ENGINES),
            )
        }
        exact = reports = 0
        for by_backend in self._inputs().values():
            for name, output in by_backend.items():
                if name != "advanced":
                    totals[f"cnots.{name}"] += output.result.cnot_count
            advanced = by_backend.get("advanced")
            if advanced is None:
                continue
            result, details = advanced.result, advanced.result.details
            totals["advanced_cnots"] += result.cnot_count
            if len(by_backend) == len(BACKENDS) and result.cnot_count > min(
                by_backend[name].result.cnot_count for name in BACKENDS if name != "advanced"
            ):
                totals["core.advanced_loss_cells"] += 1
            totals["core.compressed_terms"] += details.n_compressed_terms
            totals["core.rotations"] += len(details.sorting.ordered_rotations)
            for segment in ("bosonic", "hybrid", "fermionic"):
                totals[f"advanced.cnots.{segment}"] += result.breakdown[segment]
            totals["stage.degraded"] += len(result.degraded_stages or ())
            totals["circuits.gates"] += len(advanced.circuit.gates)
            totals["circuits.two_qubit_depth"] += advanced.circuit.two_qubit_depth()
            totals["hardware.route.swaps"] += advanced.route_swaps or 0
            if advanced.verify_report is not None:
                reports += 1
                exact += advanced.verify_report.exact
                engine = advanced.verify_report.engine
                if engine in VERIFY_ENGINES:
                    totals[f"verify.engine.{engine}"] += 1
        totals["verify.exact_frac"] = exact / reports if reports else 0.0
        return totals

    def rows(self) -> List[Dict]:
        """One ledger row per grid cell / sweep step / service request key.

        Times are at nominal host speed, like the metrics: ``latency_s``
        lists every occurrence in pass order.
        """
        rows = []
        for label, jobs in self.labels.items():
            request = jobs[0].request
            by_backend = {
                backend: self.outputs[(request.fingerprint, backend)]
                for backend in jobs[0].results
            }
            latencies = [job.latency_s * job.speed for job in jobs]
            row: Dict = {
                "input": list(label),
                "n_terms": len(request.terms),
                "n_qubits": request.resolved_n_qubits,
                "config_seed": request.config.seed,
                "latency_s": latencies,
                "latency_s_median": statistics.median(latencies),
                "cnots": {name: out.result.cnot_count for name, out in by_backend.items()},
            }
            advanced = by_backend.get("advanced")
            if advanced is not None:
                row["advanced_breakdown"] = dict(advanced.result.breakdown)
                row["rotations"] = len(advanced.result.details.sorting.ordered_rotations)
                row["two_qubit_depth"] = advanced.circuit.two_qubit_depth()
                if advanced.route_swaps is not None:
                    row["route_swaps"] = advanced.route_swaps
                timings = [
                    (job.results["advanced"].stage_timings or {}, job.speed) for job in jobs
                ]
                row["stage_s_median"] = {
                    stage: statistics.median(t.get(stage, 0.0) * speed for t, speed in timings)
                    for stage in timings[0][0]
                }
            rows.append(row)
        return rows
