"""The full compilation and optimization pipeline of Fig. 2, as explicit stages.

Given a set of HMP2-selected excitation terms the pipeline:

1. **classify** — classifies every term as bosonic, hybrid or fermionic
   (Sec. III-A); bosonic terms compile in compressed form (2 CNOTs each, [8]);
2. **schedule_hybrid** — schedules hybrid terms with the sink/source peeling +
   graph-coloring procedure and compiles the compressible ones at 7 CNOTs each
   (Fig. 3(a)), folding the rest into the fermionic class;
3. **gamma_search** — searches a block-diagonal Γ for the advanced
   fermion-to-qubit transformation by simulated annealing (Sec. III-C);
4. **transform** — expands the fermionic class (plus folded hybrids and all
   singles) into targeted Pauli rotations under the chosen Γ;
5. **sort** — orders the rotations with the GTSP-based advanced sorting
   (Sec. III-B), by seeded local search rather than the paper's genetic
   algorithm;
6. **account** — totals the CNOT count and the per-segment breakdown.

Every stage is an ordinary function mutating a shared :class:`StageContext`,
so ablations and experiments are *stage substitutions*
(:meth:`AdvancedPipeline.with_stage`) rather than boolean flags: the
``fold_bosonic``, ``fold_hybrid``, ``identity_gamma`` and ``naive_sort``
stages, one per slot.  Each stage is unit-testable in isolation.  All knobs
live in one frozen :class:`~repro.core.config.CompilerConfig`; most callers
go through ``repro.api`` (``get_backend("advanced").compile(request)``).

The result object also knows how to emit an explicit gate-level circuit for
the fermionic segment (the compressed segments are accounted for with their
certified per-term costs, since they act on compressed registers).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.obs.metrics import get_metrics
from repro.obs.tracer import current_span, get_tracer

from repro.circuits import Circuit, exponential_sequence_circuit, optimize_circuit
from repro.core.advanced_sorting import (
    SortingResult,
    advanced_sort,
    baseline_order_cnot_count,
)
from repro.core.config import CompilerConfig
from repro.core.gamma_search import GreedySortingCost, search_block_diagonal_gamma
from repro.core.hybrid_encoding import (
    BOSONIC_TERM_CNOT_COST,
    HYBRID_TERM_CNOT_COST,
    HybridSchedule,
    classify_terms,
    schedule_hybrid_terms,
)
from repro.core.terms_to_paulis import PauliRotation, required_qubits, terms_to_rotations
from repro.transforms import LinearEncodingTransform, identity_matrix
from repro.vqe import ExcitationTerm

#: Compiles whose stages hit an anytime budget (one increment per degraded
#: stage), in the global obs registry; the ``stage.degraded`` signal of the
#: batch-robustness layer.
_STAGE_DEGRADED = get_metrics().counter("stage.degraded")


class StageFailure(RuntimeError):
    """A pipeline stage raised: the typed failure backend fallback chains key on.

    Wraps whatever a stage raised (available as ``__cause__``) with the stage
    name attached, so callers — :func:`repro.api.compile_batch` and the
    :class:`~repro.service.CompileService` fallback chains — can distinguish
    "this backend's pipeline broke on this input" (retryable on another
    backend) from input validation errors raised before any stage ran.
    """

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"pipeline stage {stage!r} failed: {cause!r}")
        self.stage = stage

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the message as
        # the only argument and crash on the missing ``cause``; batch workers
        # ship these across the process boundary, so rebuild from parts
        # (``__cause__`` does not survive pickling either way).
        # Extra attributes (run_job's ``attempts``) travel as pickle state.
        return (_restore_stage_failure, (self.stage, self.args[0]), self.__dict__)


def _restore_stage_failure(stage: str, message: str) -> "StageFailure":
    failure = StageFailure.__new__(StageFailure)
    RuntimeError.__init__(failure, message)
    failure.stage = stage
    return failure


@dataclass
class AdvancedCompilationResult:
    """Outcome of the Fig. 2 pipeline on one excitation-term list."""

    cnot_count: int
    n_qubits: int
    bosonic_terms: List[ExcitationTerm]
    bosonic_cnot_count: int
    hybrid_schedule: HybridSchedule
    hybrid_cnot_count: int
    fermionic_terms: List[ExcitationTerm]
    fermionic_cnot_count: int
    gamma: np.ndarray
    sorting: SortingResult
    #: Wall seconds per pipeline stage, in execution order (filled by
    #: :meth:`AdvancedPipeline.run`; surfaced as ``CompileResult.stage_timings``).
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Stages whose optimizer hit its anytime budget and returned best-so-far
    #: (surfaced as ``CompileResult.degraded`` / ``degraded_stages``).
    degraded_stages: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when any stage returned a budget-truncated (best-so-far) result."""
        return bool(self.degraded_stages)

    @property
    def n_compressed_terms(self) -> int:
        return len(self.bosonic_terms) + self.hybrid_schedule.n_compressed

    def breakdown(self) -> Dict[str, int]:
        """Per-segment CNOT counts (useful in benchmark reports)."""
        return {
            "bosonic": self.bosonic_cnot_count,
            "hybrid": self.hybrid_cnot_count,
            "fermionic": self.fermionic_cnot_count,
            "total": self.cnot_count,
        }

    def fermionic_circuit(self, optimize: bool = False) -> Circuit:
        """Explicit gate-level circuit of the fermionic (uncompressed) segment."""
        if not self.sorting.ordered_rotations:
            return Circuit(max(self.n_qubits, 1))
        terms = [
            (rotation.string, rotation.angle, target)
            for rotation, target in self.sorting.ordered_rotations
        ]
        circuit = exponential_sequence_circuit(terms, n_qubits=self.n_qubits)
        return optimize_circuit(circuit) if optimize else circuit


# ----------------------------------------------------------------------
# Stage machinery
# ----------------------------------------------------------------------
@dataclass
class StageContext:
    """Mutable state shared by the pipeline stages of one compilation run.

    A stage reads the fields produced by its predecessors and writes its own;
    the ``account`` stage assembles :attr:`result`.  Custom stages swapped in
    via :meth:`AdvancedPipeline.with_stage` receive the same context.
    """

    terms: List[ExcitationTerm]
    n_qubits: int
    config: CompilerConfig
    rng: np.random.Generator
    parameters: Optional[Sequence[float]] = None
    # classify
    bosonic_terms: List[ExcitationTerm] = field(default_factory=list)
    bosonic_cnot_count: int = 0
    hybrid_terms: List[ExcitationTerm] = field(default_factory=list)
    fermionic_terms: List[ExcitationTerm] = field(default_factory=list)
    # schedule_hybrid
    hybrid_schedule: HybridSchedule = field(
        default_factory=lambda: HybridSchedule([], [], [], [], n_colors=0)
    )
    hybrid_cnot_count: int = 0
    # gamma_search
    term_parameters: Optional[List[float]] = None
    gamma: Optional[np.ndarray] = None
    # transform: the RotationPlanes of the fermionic class (empty until then)
    rotations: Sequence[PauliRotation] = field(default_factory=list)
    # sort
    sorting: SortingResult = field(
        default_factory=lambda: SortingResult(ordered_rotations=[], cnot_count=0)
    )
    # account
    result: Optional[AdvancedCompilationResult] = None
    # filled by AdvancedPipeline.run: wall seconds per executed stage
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    # stages that hit their anytime budget (appended by the stage itself)
    degraded_stages: List[str] = field(default_factory=list)


Stage = Callable[[StageContext], None]


def classify_stage(context: StageContext) -> None:
    """Partition terms into bosonic / hybrid / fermionic and cost the bosonic ones."""
    classes = classify_terms(context.terms)
    context.bosonic_terms = classes["bosonic"]
    context.hybrid_terms = classes["hybrid"]
    context.fermionic_terms = classes["fermionic"]
    context.bosonic_cnot_count = BOSONIC_TERM_CNOT_COST * len(context.bosonic_terms)


def _fold_into_fermionic(context: StageContext, folded: List[ExcitationTerm]) -> None:
    """Return ``folded`` to the fermionic list in the caller's (HMP2) term order,
    which the order-sensitive greedy sort and Γ cost function must see."""
    kept = {id(term) for term in context.fermionic_terms + folded}
    context.fermionic_terms = [term for term in context.terms if id(term) in kept]


def fold_bosonic_stage(context: StageContext) -> None:
    """Ablation for the ``classify`` slot: bosonic terms stay uncompressed."""
    classify_stage(context)
    _fold_into_fermionic(context, context.bosonic_terms)
    context.bosonic_terms = []
    context.bosonic_cnot_count = 0


def schedule_hybrid_stage(context: StageContext) -> None:
    """Sink/source peeling + graph coloring of the hybrid class (Fig. 3(a))."""
    if context.hybrid_terms:
        schedule = schedule_hybrid_terms(
            context.hybrid_terms,
            n_coloring_orders=context.config.coloring_orders,
            rng=context.rng,
        )
        context.fermionic_terms = context.fermionic_terms + list(
            schedule.uncompressed_terms
        )
    else:
        schedule = HybridSchedule([], [], [], [], n_colors=0)
    context.hybrid_schedule = schedule
    context.hybrid_cnot_count = HYBRID_TERM_CNOT_COST * schedule.n_compressed


def fold_hybrid_stage(context: StageContext) -> None:
    """Ablation for the ``schedule_hybrid`` slot: hybrid terms stay uncompressed."""
    _fold_into_fermionic(context, context.hybrid_terms)
    context.hybrid_terms = []


def _resolve_term_parameters(context: StageContext) -> Optional[List[float]]:
    """Per-fermionic-term variational parameters, aligned after class folding."""
    if context.parameters is None:
        return None
    index_of = {
        id(term): context.parameters[i] for i, term in enumerate(context.terms)
    }
    return [index_of.get(id(term), 1.0) for term in context.fermionic_terms]


def gamma_search_stage(context: StageContext) -> None:
    """Simulated-annealing search of the block-diagonal Γ (Sec. III-C).

    The objective is built once per stage as a
    :class:`~repro.core.gamma_search.GreedySortingCost` over the fermionic
    terms: their Jordan-Wigner images on packed bit-planes, to which every
    candidate Γ applies only GF(2) algebra and one greedy walk.  With a
    ``config.topology`` it is the same distance-weighted objective the
    sorting stage uses.  Honors ``config.gamma_budget_steps``: a truncated
    walk records the stage in ``context.degraded_stages`` and keeps the best
    Γ seen so far.  Under tracing, the stage's span carries the search
    effort: ``evaluations`` (distinct objective calls) and ``cache_hits``
    (memoized revisits).
    """
    context.gamma = identity_matrix(context.n_qubits)
    if not context.fermionic_terms:
        return
    faults.fire("stage.gamma", n_terms=len(context.fermionic_terms))

    cost = GreedySortingCost(
        context.fermionic_terms,
        context.n_qubits,
        _resolve_term_parameters(context),
        topology=context.config.topology,
    )
    search = search_block_diagonal_gamma(
        context.fermionic_terms,
        context.n_qubits,
        cost_function=cost,
        n_steps=context.config.gamma_steps,
        rng=context.rng,
        max_steps=context.config.gamma_budget_steps,
    )
    context.gamma = search.gamma
    span = current_span()
    if span is not None:
        span.set_attribute("evaluations", search.n_evaluations)
        span.set_attribute("cache_hits", search.n_cache_hits)
    if search.degraded:
        context.degraded_stages.append("gamma_search")


def identity_gamma_stage(context: StageContext) -> None:
    """Ablation for the ``gamma_search`` slot: plain Jordan-Wigner (Γ = I)."""
    context.gamma = identity_matrix(context.n_qubits)


def transform_stage(context: StageContext) -> None:
    """Expand the fermionic class into Pauli rotations under the chosen Γ."""
    context.rotations = []
    if not context.fermionic_terms:
        return
    # Resolved here, not in gamma_search_stage, so a substituted Γ stage
    # cannot silently drop the caller's variational parameters.
    context.term_parameters = _resolve_term_parameters(context)
    transform = LinearEncodingTransform(context.gamma)
    context.rotations = terms_to_rotations(
        context.fermionic_terms, transform, context.term_parameters
    )


def sort_stage(context: StageContext) -> None:
    """GTSP advanced sorting by seeded local search (Sec. III-B).

    The paper sorts with a genetic algorithm; this stage runs
    :func:`~repro.core.advanced_sorting.advanced_sort` instead, the
    deterministic local search of Gutin and Karapetyan's memetic GTSP
    without the population, seeded with the greedy walk and the term-block
    order (chained and unchained).  It draws nothing from ``context.rng``
    and never returns worse than its best seed.  Honors
    ``config.sorting_budget_rounds``: a truncated search records the stage
    in ``context.degraded_stages`` and keeps the best tour found so far.
    """
    context.sorting = SortingResult(ordered_rotations=[], cnot_count=0)
    if not context.rotations:
        return
    config = context.config
    faults.fire("stage.sort", n_rotations=len(context.rotations))
    context.sorting = advanced_sort(
        context.rotations,
        topology=config.topology,
        max_rounds=config.sorting_budget_rounds,
    )
    if context.sorting.degraded:
        context.degraded_stages.append("sort")


def naive_sort_stage(context: StageContext) -> None:
    """Ablation for the ``sort`` slot: naive term order, last-support targets."""
    if not context.rotations:
        context.sorting = SortingResult(ordered_rotations=[], cnot_count=0)
        return
    naive = baseline_order_cnot_count(context.rotations)
    default_order = [
        (rotation, rotation.string.support[-1]) for rotation in context.rotations
    ]
    context.sorting = SortingResult(ordered_rotations=default_order, cnot_count=naive)


def account_stage(context: StageContext) -> None:
    """Total the per-segment CNOT counts into the final result object."""
    gamma = context.gamma if context.gamma is not None else identity_matrix(context.n_qubits)
    total = (
        context.bosonic_cnot_count
        + context.hybrid_cnot_count
        + context.sorting.cnot_count
    )
    context.result = AdvancedCompilationResult(
        cnot_count=total,
        n_qubits=context.n_qubits,
        bosonic_terms=context.bosonic_terms,
        bosonic_cnot_count=context.bosonic_cnot_count,
        hybrid_schedule=context.hybrid_schedule,
        hybrid_cnot_count=context.hybrid_cnot_count,
        fermionic_terms=context.fermionic_terms,
        fermionic_cnot_count=context.sorting.cnot_count,
        gamma=gamma,
        sorting=context.sorting,
        degraded_stages=tuple(context.degraded_stages),
    )


#: The Fig. 2 flow as an ordered list of named stages.
DEFAULT_STAGES: Tuple[Tuple[str, Stage], ...] = (
    ("classify", classify_stage),
    ("schedule_hybrid", schedule_hybrid_stage),
    ("gamma_search", gamma_search_stage),
    ("transform", transform_stage),
    ("sort", sort_stage),
    ("account", account_stage),
)


class AdvancedPipeline:
    """The paper's advanced compilation methodology as a staged pipeline.

    Parameters
    ----------
    config:
        Frozen :class:`~repro.core.config.CompilerConfig`; defaults used when
        omitted.
    stages:
        Ordered ``(name, stage)`` pairs; :data:`DEFAULT_STAGES` when omitted.
        Use :meth:`with_stage` to substitute a single stage (the ablation
        mechanism).
    """

    def __init__(
        self,
        config: Optional[CompilerConfig] = None,
        stages: Optional[Sequence[Tuple[str, Stage]]] = None,
    ):
        self.config = config if config is not None else CompilerConfig()
        self.stages: Tuple[Tuple[str, Stage], ...] = (
            tuple(stages) if stages is not None else DEFAULT_STAGES
        )

    @property
    def stage_names(self) -> List[str]:
        return [name for name, _ in self.stages]

    def with_stage(self, name: str, stage: Stage) -> "AdvancedPipeline":
        """A pipeline with the named stage substituted (ablations, experiments)."""
        if name not in self.stage_names:
            raise KeyError(
                f"unknown stage {name!r}; pipeline stages are {self.stage_names}"
            )
        stages = tuple(
            (existing_name, stage if existing_name == name else existing_stage)
            for existing_name, existing_stage in self.stages
        )
        return AdvancedPipeline(self.config, stages)

    def make_context(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: Optional[int] = None,
        parameters: Optional[Sequence[float]] = None,
    ) -> StageContext:
        """Validate inputs and build the shared context the stages mutate."""
        terms = list(terms)
        if not terms:
            raise ValueError("cannot compile an empty term list")
        if n_qubits is None:
            n_qubits = required_qubits(terms)
        return StageContext(
            terms=terms,
            n_qubits=n_qubits,
            config=self.config,
            rng=np.random.default_rng(self.config.seed),
            parameters=parameters,
        )

    def run(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: Optional[int] = None,
        parameters: Optional[Sequence[float]] = None,
    ) -> AdvancedCompilationResult:
        """Run every stage in order and return the accounted result.

        Each stage runs under a ``pipeline.<stage>`` tracing span (a no-op
        when tracing is disabled) and its wall time is recorded in
        ``context.stage_seconds`` — cheap enough to stay always-on, so the
        result carries per-stage timings even without tracing.

        A stage that raises is re-raised wrapped in :class:`StageFailure`
        (original exception as ``__cause__``), the typed signal backend
        fallback chains retry on.  A stage that hits its anytime budget marks
        its span ``degraded=True`` and bumps the ``stage.degraded`` counter.
        """
        context = self.make_context(terms, n_qubits=n_qubits, parameters=parameters)
        tracer = get_tracer()
        with tracer.span(
            "pipeline.run", n_terms=len(context.terms), n_qubits=context.n_qubits
        ):
            for name, stage in self.stages:
                stage_start = time.perf_counter()
                already_degraded = set(context.degraded_stages)
                with tracer.span(f"pipeline.{name}") as stage_span:
                    try:
                        stage(context)
                    except StageFailure:
                        raise
                    except Exception as exc:
                        raise StageFailure(name, exc) from exc
                    for degraded_name in context.degraded_stages:
                        if degraded_name not in already_degraded:
                            stage_span.set_attribute("degraded", True)
                            _STAGE_DEGRADED.inc()
                context.stage_seconds[name] = time.perf_counter() - stage_start
        if context.result is None:
            raise RuntimeError(
                "pipeline finished without producing a result; "
                "did a stage substitution drop the 'account' stage?"
            )
        context.result.stage_seconds = dict(context.stage_seconds)
        return context.result

