"""Per-stage unit tests for the staged advanced pipeline."""

import numpy as np
import pytest

from repro.api import CompilerConfig
from repro.core import (
    AdvancedPipeline,
    SortingResult,
    StageContext,
    account_stage,
    classify_stage,
    fold_bosonic_stage,
    fold_hybrid_stage,
    gamma_search_stage,
    identity_gamma_stage,
    naive_sort_stage,
    schedule_hybrid_stage,
    sort_stage,
    transform_stage,
)
from repro.transforms import identity_matrix
from repro.vqe import ExcitationTerm


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


@pytest.fixture
def mixed_terms():
    return [
        term((4, 5), (0, 1)),     # bosonic
        term((4, 5), (0, 3)),     # hybrid
        term((6, 7), (2, 3)),     # bosonic
        term((4, 7), (0, 3)),     # fermionic
        term((6,), (0,)),         # single
    ]


FAST = CompilerConfig(gamma_steps=8, seed=0)


def make_context(terms, config=FAST, n_qubits=8):
    return AdvancedPipeline(config).make_context(terms, n_qubits=n_qubits)


def run_stages(context, *stages):
    for stage in stages:
        stage(context)
    return context


class TestClassifyStage:
    def test_partitions_and_costs_bosonic(self, mixed_terms):
        context = run_stages(make_context(mixed_terms), classify_stage)
        assert len(context.bosonic_terms) == 2
        assert len(context.hybrid_terms) == 1
        assert len(context.fermionic_terms) == 2  # fermionic double + single
        assert context.bosonic_cnot_count == 2 * 2

    def test_fold_bosonic_keeps_original_order(self, mixed_terms):
        context = run_stages(make_context(mixed_terms), fold_bosonic_stage)
        assert context.bosonic_terms == []
        assert context.bosonic_cnot_count == 0
        assert context.hybrid_terms == [mixed_terms[1]]
        # Original HMP2 ordering is preserved, not fermionic-first reshuffled.
        assert context.fermionic_terms == [mixed_terms[i] for i in (0, 2, 3, 4)]

    def test_both_folds_restore_the_caller_order(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms), fold_bosonic_stage, fold_hybrid_stage
        )
        assert context.bosonic_terms == []
        assert context.hybrid_terms == []
        assert context.fermionic_terms == mixed_terms
        assert context.bosonic_cnot_count == 0


class TestScheduleHybridStage:
    def test_fold_hybrid_schedules_nothing(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms), classify_stage, fold_hybrid_stage
        )
        assert context.hybrid_terms == []
        assert context.hybrid_schedule.n_compressed == 0
        assert context.hybrid_cnot_count == 0
        assert context.fermionic_terms == [mixed_terms[i] for i in (1, 3, 4)]

    def test_compressed_hybrids_cost_seven_each(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms), classify_stage, schedule_hybrid_stage
        )
        schedule = context.hybrid_schedule
        assert schedule.n_compressed + len(schedule.uncompressed_terms) == 1
        assert context.hybrid_cnot_count == 7 * schedule.n_compressed


class TestGammaSearchStage:
    def test_identity_gamma_stage_keeps_identity(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, identity_gamma_stage,
        )
        assert np.array_equal(context.gamma, identity_matrix(8))

    def test_search_returns_invertible_gamma_of_right_shape(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, gamma_search_stage,
        )
        assert context.gamma.shape == (8, 8)
        # invertible over GF(2): LinearEncodingTransform would reject otherwise
        from repro.transforms import LinearEncodingTransform
        LinearEncodingTransform(context.gamma)


class TestTransformStage:
    def test_rotations_empty_without_fermionic_terms(self):
        bosonic_only = [term((4, 5), (0, 1)), term((6, 7), (2, 3))]
        context = run_stages(
            make_context(bosonic_only),
            classify_stage, schedule_hybrid_stage, gamma_search_stage, transform_stage,
        )
        assert len(context.rotations) == 0

    def test_rotations_generated_for_fermionic_terms(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, gamma_search_stage, transform_stage,
        )
        assert len(context.rotations) > 0
        assert all(rotation.string.weight > 0 for rotation in context.rotations)


class TestSortStage:
    def test_savings_tables_built_per_construction(self, mixed_terms, monkeypatch):
        """One sort builds one string-pair savings table: the greedy seed
        walk, the two term-block seed tours, the GTSP instance and the final
        count all read the :class:`~repro.operators.SameTargetSavings`
        memoized on the rotations' planes.  A default JW or BK compile reads
        only consecutive pairs and builds no table at all."""
        from functools import cached_property

        import repro.operators.symplectic as symplectic
        from repro.api import CompileRequest, get_backend

        context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, gamma_search_stage, transform_stage,
        )
        calls = []
        tables = []
        build_tables = symplectic.SameTargetSavings.tables.func

        class CountingSavings(symplectic.SameTargetSavings):
            def __init__(self, strings):
                calls.append(len(strings))
                super().__init__(strings)

            @cached_property
            def tables(self):
                tables.append(self.letters.shape[1])
                return build_tables(self)

        monkeypatch.setattr(symplectic, "SameTargetSavings", CountingSavings)
        sort_stage(context)
        assert calls == [len(context.rotations)]
        assert tables == [len(context.rotations)]
        assert len(context.sorting.ordered_rotations) == len(context.rotations)

        request = CompileRequest(terms=tuple(mixed_terms), n_qubits=8)
        for backend in ("jordan-wigner", "bravyi-kitaev"):
            calls.clear()
            tables.clear()
            get_backend(backend).compile(request)
            assert calls and tables == []

    def test_sorted_count_not_worse_than_naive(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, gamma_search_stage,
            transform_stage, sort_stage,
        )
        naive_context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, gamma_search_stage,
            transform_stage, naive_sort_stage,
        )
        assert context.sorting.cnot_count <= naive_context.sorting.cnot_count
        assert len(context.sorting.ordered_rotations) == len(context.rotations)

    def test_seed_tours_never_lose_to_seeds(self, mixed_terms):
        """Seeded with the greedy and both term-block tours, the GTSP search
        cannot finish worse than any construction — even with a zero-round
        budget."""
        from repro.core import (
            advanced_sort,
            baseline_order_cnot_count,
            greedy_sort,
            term_block_order,
        )
        from repro.circuits import sequence_cnot_count

        context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, gamma_search_stage, transform_stage,
        )
        rotations = context.rotations
        block_counts = []
        for ordered in (True, False):
            blocks = term_block_order(rotations.strings, rotations.term_index, ordered)
            block_counts.append(blocks.cnot_count)
            assert blocks.cnot_count == sequence_cnot_count(
                [
                    (rotations[index].string, target)
                    for index, target in zip(blocks.rows.tolist(), blocks.targets.tolist())
                ]
            )
        seeded = advanced_sort(rotations, max_rounds=0)
        assert seeded.cnot_count <= min(greedy_sort(rotations).cnot_count, *block_counts)
        assert seeded.cnot_count <= baseline_order_cnot_count(rotations)


class TestAccountStage:
    def test_result_totals_segments(self, mixed_terms):
        context = run_stages(
            make_context(mixed_terms),
            classify_stage, schedule_hybrid_stage, gamma_search_stage,
            transform_stage, sort_stage, account_stage,
        )
        result = context.result
        assert result is not None
        assert result.cnot_count == (
            result.bosonic_cnot_count
            + result.hybrid_cnot_count
            + result.fermionic_cnot_count
        )
        assert result.breakdown()["total"] == result.cnot_count


class TestPipelineComposition:
    def test_run_equals_manual_stage_sequence(self, mixed_terms):
        pipeline = AdvancedPipeline(FAST)
        via_run = pipeline.run(mixed_terms, n_qubits=8)
        context = run_stages(
            pipeline.make_context(mixed_terms, n_qubits=8),
            classify_stage, schedule_hybrid_stage, gamma_search_stage,
            transform_stage, sort_stage, account_stage,
        )
        assert via_run.cnot_count == context.result.cnot_count
        assert via_run.breakdown() == context.result.breakdown()

    def test_with_stage_substitutes_one_stage(self, mixed_terms):
        recorded = {}

        def probe_sort(context):
            recorded["n_rotations"] = len(context.rotations)
            naive_sort_stage(context)

        pipeline = AdvancedPipeline(FAST).with_stage("sort", probe_sort)
        result = pipeline.run(mixed_terms, n_qubits=8)
        assert recorded["n_rotations"] > 0
        assert result.cnot_count > 0

    def test_substituted_gamma_stage_keeps_parameters(self, mixed_terms):
        """Variational parameters are resolved by transform_stage, so swapping
        the Γ stage cannot silently drop them."""
        from repro.core import terms_to_rotations
        from repro.transforms import LinearEncodingTransform

        def custom_gamma_stage(context):
            context.gamma = identity_matrix(context.n_qubits)

        pipeline = AdvancedPipeline(FAST).with_stage("gamma_search", custom_gamma_stage)
        parameters = [0.5] * len(mixed_terms)
        result = pipeline.run(mixed_terms, n_qubits=8, parameters=parameters)
        angles = {rotation.angle for rotation, _ in result.sorting.ordered_rotations}
        reference = terms_to_rotations(
            result.fermionic_terms,
            LinearEncodingTransform(identity_matrix(8)),
            [0.5] * len(result.fermionic_terms),
        )
        assert angles == {rotation.angle for rotation in reference}
        full_angles = {
            r.angle
            for r, _ in pipeline.run(mixed_terms, n_qubits=8).sorting.ordered_rotations
        }
        assert angles != full_angles  # parameters actually scaled the rotations

    def test_with_stage_unknown_name_raises(self):
        with pytest.raises(KeyError):
            AdvancedPipeline(FAST).with_stage("polish", lambda context: None)

    def test_dropping_account_stage_raises(self, mixed_terms):
        stages = [
            (name, stage)
            for name, stage in AdvancedPipeline(FAST).stages
            if name != "account"
        ]
        broken = AdvancedPipeline(FAST, stages=stages)
        with pytest.raises(RuntimeError, match="account"):
            broken.run(mixed_terms, n_qubits=8)

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            AdvancedPipeline(FAST).run([])

    def test_custom_sort_stage_result_is_used(self, mixed_terms):
        def zero_sort(context):
            context.sorting = SortingResult(ordered_rotations=[], cnot_count=0)

        result = AdvancedPipeline(FAST).with_stage("sort", zero_sort).run(
            mixed_terms, n_qubits=8
        )
        assert result.fermionic_cnot_count == 0
