"""Cross-module integration tests.

These tests tie the layers together: chemistry → VQE terms → compilation →
explicit circuits → statevector simulation, checking that the compiled
artifacts are mutually consistent (e.g. that the emitted fermionic-segment
circuit really implements the product of the transformed excitation
exponentials, and that CNOT accounting matches the explicit gate list at the
points where both exist).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro import compile_molecule_ansatz
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.circuits import optimize_circuit, sequence_cnot_count
from repro.api import CompilerConfig
from repro.core import AdvancedPipeline, terms_to_rotations
from repro.operators import QubitOperator
from repro.simulator import expectation_value, fci_ground_state_energy, hartree_fock_state
from repro.transforms import JordanWignerTransform, LinearEncodingTransform
from repro.vqe import (
    ExcitationTerm,
    UccAnsatz,
    adaptive_vqe,
    hamiltonian_sparse_matrix,
    hmp2_ranked_terms,
)


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


class TestCircuitEmissionConsistency:
    def test_single_fermionic_term_circuit_matches_exponential(self):
        """The emitted circuit of one fermionic term equals exp(θ(T - T†)) exactly
        (all Pauli strings of one term commute, so reordering is harmless)."""
        excitation = term((2, 4), (0, 1))
        pipeline = AdvancedPipeline(CompilerConfig(
            use_gamma_search=False, use_hybrid_encoding=False, use_bosonic_encoding=False,
            sorting_population=10, sorting_generations=10, seed=0,
        ))
        result = pipeline.run([excitation], n_qubits=5, parameters=[0.37])
        circuit = result.fermionic_circuit()

        transform = JordanWignerTransform(5)
        generator = transform.transform(excitation.generator(0.37))
        expected = expm(generator.to_dense())
        assert np.allclose(circuit.to_unitary(), expected, atol=1e-8)

    def test_emitted_circuit_cnot_count_matches_accounting_after_optimization(self):
        """Where the interface formula credits only matched (ω=2) cancellations,
        the peephole-optimized explicit circuit reaches the accounted count."""
        excitation = term((2, 4), (0, 1))
        rotations = terms_to_rotations([excitation], JordanWignerTransform(5))
        # Use the default (naive) order so the accounting is deterministic.
        sequence = [(r.string, r.string.support[-1]) for r in rotations]
        accounted = sequence_cnot_count(sequence)

        from repro.circuits import exponential_sequence_circuit

        circuit = exponential_sequence_circuit(
            [(r.string, r.angle, r.string.support[-1]) for r in rotations], n_qubits=5
        )
        optimized = optimize_circuit(circuit)
        # The peephole pass realizes at least the matched cancellations; the
        # accounting may additionally credit ω=1 block merges, so it is a
        # lower bound on what the explicit gate list achieves.
        assert accounted <= optimized.cnot_count <= circuit.cnot_count

    def test_gamma_transformed_circuit_preserves_spectrum(self):
        """Compiling under a non-trivial Γ is a basis change: the circuit's
        conjugated Hamiltonian expectation matches the JW one."""
        excitation = term((2, 3), (0, 1))
        n_qubits = 4
        gamma = np.array(
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8
        )
        jw = JordanWignerTransform(n_qubits)
        encoded = LinearEncodingTransform(gamma)
        generator = excitation.generator(0.21)
        jw_image = jw.transform(generator).to_dense()
        encoded_image = encoded.transform(generator).to_dense()
        assert np.allclose(
            np.sort(np.linalg.eigvals(jw_image).imag), np.sort(np.linalg.eigvals(encoded_image).imag)
        )


class TestMoleculeLevelConsistency:
    @pytest.fixture(scope="class")
    def h2(self):
        scf = run_rhf(make_molecule("H2"))
        return build_molecular_hamiltonian(scf)

    def test_vqe_energy_matches_direct_expectation(self, h2):
        terms = hmp2_ranked_terms(h2)
        result = adaptive_vqe(h2, terms, max_terms=1, threshold=1e-9)
        # Rebuild the state by hand and compare the energy.
        ansatz = UccAnsatz(n_qubits=4, n_electrons=2, terms=list(result.terms))
        state = ansatz.prepare_state(result.parameters)
        energy = expectation_value(hamiltonian_sparse_matrix(h2), state)
        assert np.isclose(energy, result.final_energy, atol=1e-8)

    def test_hartree_fock_reference_energy(self, h2):
        matrix_energy = expectation_value(
            hamiltonian_sparse_matrix(h2), hartree_fock_state(4, 2)
        )
        assert np.isclose(matrix_energy, h2.hartree_fock_energy, atol=1e-8)

    def test_full_report_is_self_consistent(self):
        report = compile_molecule_ansatz(
            "H2", n_terms=2, gamma_steps=5, sorting_population=8, sorting_generations=5
        )
        assert report.n_terms == 2
        assert report.advanced_cnot_count > 0
        assert report.advanced_cnot_count <= report.baseline_cnot_count <= max(
            report.jordan_wigner_cnot_count, report.bravyi_kitaev_cnot_count
        )
