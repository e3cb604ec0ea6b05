"""Per-stage anytime budgets: degraded compiles stay valid, deterministic, observable."""

import pytest

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.core import AdvancedPipeline
from repro.obs.metrics import get_metrics
from repro.obs.tracer import tracing
from repro.vqe import ExcitationTerm


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


TERMS = (
    term((4, 5), (0, 1)),
    term((4, 7), (0, 3)),
    term((6,), (0,)),
)

FAST = CompilerConfig(gamma_steps=5, seed=0)

#: Both budgets strictly below the effort the stages would spend: every
#: budgeted stage must truncate and flag itself.
BUDGETED = FAST.replace(gamma_budget_steps=2, sorting_budget_rounds=0)


def compile_with(config):
    return get_backend("advanced").compile(
        CompileRequest(terms=TERMS, n_qubits=8, config=config)
    )


class TestConfigValidation:
    def test_gamma_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma_budget_steps"):
            FAST.replace(gamma_budget_steps=0)

    def test_sorting_budget_must_be_non_negative(self):
        with pytest.raises(ValueError, match="sorting_budget_rounds"):
            FAST.replace(sorting_budget_rounds=-1)

    def test_budgets_change_the_fingerprint(self):
        assert BUDGETED.fingerprint != FAST.fingerprint


class TestDegradedFlag:
    def test_budget_hit_flags_the_compile(self):
        result = compile_with(BUDGETED)
        assert result.degraded
        assert result.degraded_stages == ("gamma_search", "sort")

    def test_unbudgeted_compile_is_not_degraded(self):
        result = compile_with(FAST)
        assert not result.degraded
        assert result.degraded_stages is None

    def test_budget_matching_the_configured_effort_is_not_degradation(self):
        exact = FAST.replace(gamma_budget_steps=5, sorting_budget_rounds=50)
        result = compile_with(exact)
        assert not result.degraded
        # A budget the search never reaches is the unbudgeted run.
        assert result.cnot_count == compile_with(FAST).cnot_count
        assert result.breakdown == compile_with(FAST).breakdown

    def test_degraded_flag_excluded_from_result_equality(self):
        budgeted = compile_with(BUDGETED)
        clone = compile_with(BUDGETED)
        assert budgeted == clone  # compare=False fields do not break equality


class TestDegradedResultValidity:
    def test_degraded_compile_is_deterministic(self):
        one, two = compile_with(BUDGETED), compile_with(BUDGETED)
        assert one.cnot_count == two.cnot_count
        assert one.breakdown == two.breakdown

    def test_degraded_breakdown_is_internally_consistent(self):
        result = compile_with(BUDGETED)
        parts = result.breakdown
        assert parts["bosonic"] + parts["hybrid"] + parts["fermionic"] == parts["total"]
        assert result.cnot_count == parts["total"]

    def test_degraded_pipeline_result_still_emits_a_circuit(self):
        result = AdvancedPipeline(BUDGETED).run(TERMS, n_qubits=8)
        assert result.degraded
        circuit = result.fermionic_circuit()
        assert circuit.n_qubits == 8
        assert len(circuit.gates) > 0


class TestObservability:
    def test_stage_degraded_counter_counts_each_degraded_stage(self):
        counter = get_metrics().counter("stage.degraded")
        before = counter.value
        compile_with(BUDGETED)
        assert counter.value == before + 2  # gamma_search and sort

    def test_degraded_stage_spans_are_marked(self):
        with tracing() as tracer:
            AdvancedPipeline(BUDGETED).run(TERMS, n_qubits=8)
            marked = {
                span.name
                for span in tracer.all_spans()
                if span.attributes.get("degraded")
            }
        assert marked == {"pipeline.gamma_search", "pipeline.sort"}

    def test_backend_compile_span_is_marked(self):
        with tracing() as tracer:
            compile_with(BUDGETED)
            compile_spans = [
                span for span in tracer.all_spans() if span.name == "compile.advanced"
            ]
        assert compile_spans and compile_spans[0].attributes.get("degraded") is True

    def test_undegraded_spans_carry_no_flag(self):
        with tracing() as tracer:
            AdvancedPipeline(FAST).run(TERMS, n_qubits=8)
            assert not any(
                span.attributes.get("degraded") for span in tracer.all_spans()
            )
