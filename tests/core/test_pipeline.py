"""Tests for the full Fig. 2 compilation pipeline and the top-level API."""

import numpy as np
import pytest

from repro import compile_molecule_ansatz
from repro.baselines import BaselineCompiler, naive_cnot_count
from repro.api import CompilerConfig
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import (
    AdvancedPipeline,
    fold_bosonic_stage,
    fold_hybrid_stage,
    identity_gamma_stage,
    naive_sort_stage,
)
from repro.transforms import JordanWignerTransform
from repro.verify import assert_implements_rotations
from repro.vqe import ExcitationTerm, select_ansatz_terms


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
    options = dict(gamma_steps=8, seed=0)
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

    def test_ablation_stages(self, mixed_terms):
        pipeline = fast_compiler()
        full = pipeline.run(mixed_terms, n_qubits=8)
        no_hybrid = pipeline.with_stage("schedule_hybrid", fold_hybrid_stage).run(
            mixed_terms, n_qubits=8
        )
        no_bosonic = pipeline.with_stage("classify", fold_bosonic_stage).run(
            mixed_terms, n_qubits=8
        )
        no_sorting = (
            pipeline.with_stage("gamma_search", identity_gamma_stage)
            .with_stage("sort", naive_sort_stage)
            .run(mixed_terms, n_qubits=8)
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
        # Raw emission keeps the CNOTs the accounting cancels between neighbours.
        assert circuit.cnot_count >= result.fermionic_cnot_count > 0
        rotations = [
            (rotation.string, rotation.angle)
            for rotation, _ in result.sorting.ordered_rotations
        ]
        assert_implements_rotations(circuit, rotations)

    def test_zero_gamma_steps_keeps_the_identity(self):
        """``gamma_steps=0`` scores Γ = I alone: on H2O/20, whose terms form
        Γ blocks, it compiles to the identity-Γ ablation's output."""
        hamiltonian = build_molecular_hamiltonian(
            run_rhf(make_molecule("H2O")), n_frozen_spatial_orbitals=1
        )
        terms = select_ansatz_terms(hamiltonian, 20)
        n = hamiltonian.n_spin_orbitals
        pipeline = fast_compiler(gamma_steps=0)
        result = pipeline.run(terms, n_qubits=n)
        ablated = pipeline.with_stage("gamma_search", identity_gamma_stage).run(
            terms, n_qubits=n
        )
        assert np.array_equal(result.gamma, np.eye(n, dtype=np.uint8))
        assert not result.degraded
        assert result.cnot_count == ablated.cnot_count
        assert result.breakdown() == ablated.breakdown()


class TestEndToEndMoleculeApi:
    def test_h2_report_shape(self):
        report = compile_molecule_ansatz(
            "H2", n_terms=3, config=CompilerConfig(
                gamma_steps=5
            ),
        )
        assert report.n_qubits == 4
        assert report.advanced_cnot_count <= report.baseline_cnot_count
        assert report.baseline_cnot_count <= max(
            report.jordan_wigner_cnot_count, report.bravyi_kitaev_cnot_count
        )
        assert 0.0 <= report.improvement_over_baseline <= 1.0

    def test_lih_advanced_beats_jw_and_bk(self):
        report = compile_molecule_ansatz(
            "LiH", n_terms=4, config=CompilerConfig(
                gamma_steps=5
            ),
        )
        assert report.advanced_cnot_count < report.jordan_wigner_cnot_count
        assert report.advanced_cnot_count < report.bravyi_kitaev_cnot_count
        assert report.advanced_cnot_count <= report.baseline_cnot_count
