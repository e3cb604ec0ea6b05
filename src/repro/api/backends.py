"""Default backends: adapters wrapping the four Table-I compilation flows.

Each adapter translates a :class:`~repro.api.backend.CompileRequest` into the
underlying flow's native call, times it, and normalizes the outcome into a
:class:`~repro.api.backend.CompileResult`.  All four register on import of
:mod:`repro.api`:

========================  =======  ==============================================
canonical name            alias    flow
========================  =======  ==============================================
``jordan-wigner``         ``jw``   naive Trotterization under Jordan-Wigner
``bravyi-kitaev``         ``bk``   naive Trotterization under Bravyi-Kitaev
``baseline``              ``gt``   prior-art compiler ([8], [9]; "GT" column)
``advanced``              ``adv``  the paper's staged Fig. 2 pipeline
========================  =======  ==============================================
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.backend import CompileRequest, CompileResult, register_backend
from repro.obs.tracer import get_tracer
from repro.baselines import BaselineCompiler, naive_cnot_count, naive_rotation_sequence
from repro.circuits import optimize_circuit
from repro.core import AdvancedPipeline
from repro.core.config import CompilerConfig
from repro.hardware import (
    RoutingMetrics,
    RoutingResult,
    routed_exponential_sequence_circuit,
)
from repro.operators import PauliString
from repro.transforms import (
    BravyiKitaevTransform,
    JordanWignerTransform,
    LinearEncodingTransform,
)


def sequence_routing_metrics(
    sequence: Sequence[Tuple[PauliString, float, Optional[int]]],
    config: CompilerConfig,
) -> Optional[RoutingMetrics]:
    """Route a compiled rotation sequence against ``config.topology``.

    Synthesizes the sequence with the topology-steered parity ladders (zero
    SWAPs, identity permutation), realizes the gate-level interface
    cancellations with the peephole optimizer (which never moves a gate onto
    new qubits, so legality is preserved), and summarizes the executable
    circuit.  Returns ``None`` when the config carries no topology.
    """
    topology = config.topology
    if topology is None:
        return None
    circuit = optimize_circuit(routed_exponential_sequence_circuit(sequence, topology))
    n_logical = sequence[0][0].n_qubits if sequence else topology.n_qubits
    result = RoutingResult(
        circuit=circuit,
        topology=topology,
        initial_layout=tuple(range(n_logical)),
        final_layout=tuple(range(n_logical)),
        n_swaps=0,
    )
    return result.metrics()


def compiled_rotation_sequence(
    result: CompileResult,
    terms: Sequence,
    parameters: Optional[Sequence[float]] = None,
) -> List[Tuple[PauliString, float, Optional[int]]]:
    """The ``(string, angle, target)`` sequence behind a default backend's result.

    One place (shared by the routing benchmark, the routed-Table-I example and
    the differential tests) that knows how each Table-I flow exposes its
    compiled rotation order, keyed on ``result.backend``.
    """
    if result.backend == "jordan-wigner":
        return naive_rotation_sequence(
            list(terms), JordanWignerTransform(result.n_qubits), parameters
        )
    if result.backend == "bravyi-kitaev":
        return naive_rotation_sequence(
            list(terms), BravyiKitaevTransform(result.n_qubits), parameters
        )
    if result.backend == "baseline":
        return list(result.details.ordered_exponentials)
    if result.backend == "advanced":
        return result.details.sorting.exponentials()
    raise ValueError(
        f"no rotation-sequence extraction rule for backend {result.backend!r}"
    )


class NaiveTransformBackend:
    """Naive Trotterized compilation under a fixed fermion-to-qubit transform.

    The JW and BK reference columns of Table I: no compression, no reordering,
    only cancellations between consecutive rotations are credited.  The flow
    reads nothing from the request config except the device topology
    (:meth:`cache_config`), so cache entries are shared across sweeps of the
    pipeline knobs.
    """

    def __init__(
        self,
        name: str,
        transform_factory: Callable[[int], LinearEncodingTransform],
    ):
        self._name = name
        self._transform_factory = transform_factory

    @property
    def name(self) -> str:
        return self._name

    @staticmethod
    def cache_config(config: CompilerConfig) -> Any:
        """The config this flow reads, for :meth:`~repro.api.CompileCache.key`."""
        return config.topology

    def compile(self, request: CompileRequest) -> CompileResult:
        start = time.perf_counter()
        n_qubits = request.resolved_n_qubits
        with get_tracer().span(
            f"compile.{self._name}", n_terms=len(request.terms), n_qubits=n_qubits
        ) as compile_span:
            transform = self._transform_factory(n_qubits)
            parameters = (
                list(request.parameters) if request.parameters is not None else None
            )
            # naive_cnot_count is exactly the analytic cost of
            # naive_rotation_sequence; the sequence is built only to route it.
            terms = list(request.terms)
            count = naive_cnot_count(terms, transform, parameters)
            routing = None
            if request.config.topology is not None:
                routing = sequence_routing_metrics(
                    naive_rotation_sequence(terms, transform, parameters), request.config
                )
            compile_span.set_attribute("cnot_count", count)
        return CompileResult(
            backend=self._name,
            cnot_count=count,
            n_qubits=n_qubits,
            breakdown={"total": count},
            wall_time_s=time.perf_counter() - start,
            routing=routing,
        )


class BaselineBackend:
    """The prior-art compiler (bosonic compression + shared targets + PSO Γ).

    Bosonic terms always compile compressed, as in the prior art.
    ``config.baseline_pso_iterations > 0`` runs the binary-PSO transformation
    search (seeded from ``config.seed``) before compiling; the default of 0
    compiles under the identity transformation, reads only the topology
    (:meth:`cache_config`) and so shares cache entries across seeds and
    pipeline knobs.  The compression-free flow is
    ``BaselineCompiler(use_bosonic_encoding=False)``, called directly.
    """

    name = "baseline"

    @staticmethod
    def cache_config(config: CompilerConfig) -> Any:
        """The config this flow reads, for :meth:`~repro.api.CompileCache.key`."""
        if config.baseline_pso_iterations == 0:
            return config.topology
        return (
            config.topology,
            config.baseline_pso_particles,
            config.baseline_pso_iterations,
            config.seed,
        )

    def compile(self, request: CompileRequest) -> CompileResult:
        start = time.perf_counter()
        config = request.config
        n_qubits = request.resolved_n_qubits
        terms = list(request.terms)
        with get_tracer().span(
            "compile.baseline", n_terms=len(terms), n_qubits=n_qubits
        ) as compile_span:
            compiler = BaselineCompiler()
            if config.baseline_pso_iterations > 0:
                compiler.search_transform(
                    terms,
                    n_qubits=n_qubits,
                    n_particles=config.baseline_pso_particles,
                    iterations=config.baseline_pso_iterations,
                    rng=np.random.default_rng(config.seed),
                )
            result = compiler.compile(
                terms,
                n_qubits=n_qubits,
                parameters=list(request.parameters)
                if request.parameters is not None
                else None,
            )
            routing = None
            if config.topology is not None:
                routing = sequence_routing_metrics(
                    list(result.ordered_exponentials), config
                )
            compile_span.set_attribute("cnot_count", result.cnot_count)
        return CompileResult(
            backend=self.name,
            cnot_count=result.cnot_count,
            n_qubits=n_qubits,
            breakdown={
                "bosonic": result.bosonic_cnot_count,
                "rotations": result.rotation_cnot_count,
                "total": result.cnot_count,
            },
            wall_time_s=time.perf_counter() - start,
            details=result,
            routing=routing,
        )


class AdvancedBackend:
    """The paper's advanced staged pipeline (Fig. 2)."""

    name = "advanced"

    def compile(self, request: CompileRequest) -> CompileResult:
        start = time.perf_counter()
        with get_tracer().span(
            "compile.advanced",
            n_terms=len(request.terms),
            n_qubits=request.resolved_n_qubits,
        ) as compile_span:
            pipeline = AdvancedPipeline(request.config)
            result = pipeline.run(
                list(request.terms),
                n_qubits=request.resolved_n_qubits,
                parameters=list(request.parameters)
                if request.parameters is not None
                else None,
            )
            routing = None
            if request.config.topology is not None:
                routing = sequence_routing_metrics(
                    result.sorting.exponentials(), request.config
                )
            compile_span.set_attribute("cnot_count", result.cnot_count)
            if result.degraded:
                compile_span.set_attribute("degraded", True)
        return CompileResult(
            backend=self.name,
            cnot_count=result.cnot_count,
            n_qubits=result.n_qubits,
            breakdown=result.breakdown(),
            wall_time_s=time.perf_counter() - start,
            details=result,
            routing=routing,
            stage_timings=dict(result.stage_seconds),
            degraded=result.degraded,
            degraded_stages=result.degraded_stages if result.degraded else None,
        )


#: Names every fresh registry gets, in Table-I column order.
DEFAULT_BACKEND_NAMES: List[str] = [
    "jordan-wigner",
    "bravyi-kitaev",
    "baseline",
    "advanced",
]


def register_default_backends(replace: bool = False) -> None:
    """(Re-)register the four Table-I flows under their canonical names."""
    register_backend(
        NaiveTransformBackend("jordan-wigner", JordanWignerTransform),
        aliases=("jw",),
        replace=replace,
    )
    register_backend(
        NaiveTransformBackend("bravyi-kitaev", BravyiKitaevTransform),
        aliases=("bk",),
        replace=replace,
    )
    register_backend(BaselineBackend(), aliases=("gt",), replace=replace)
    register_backend(AdvancedBackend(), aliases=("adv",), replace=replace)


register_default_backends(replace=True)
