"""Integration-style tests for HMP2 ordering and the adaptive VQE loop."""

import numpy as np
import pytest

from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.simulator import CHEMICAL_ACCURACY, fci_ground_state_energy
from repro.vqe import (
    UccAnsatz,
    adaptive_vqe,
    hamiltonian_sparse_matrix,
    hmp2_ranked_terms,
    optimize_ansatz,
    select_ansatz_terms,
)


@pytest.fixture(scope="module")
def h2_hamiltonian():
    return build_molecular_hamiltonian(run_rhf(make_molecule("H2")))


@pytest.fixture(scope="module")
def lih_hamiltonian():
    scf = run_rhf(make_molecule("LiH"))
    return build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)


class TestHmp2Ordering:
    def test_h2_dominant_term_is_the_double(self, h2_hamiltonian):
        terms = hmp2_ranked_terms(h2_hamiltonian)
        assert terms[0].is_double
        assert terms[0].creation == (2, 3)
        assert terms[0].annihilation == (0, 1)

    def test_importances_weakly_decreasing_for_doubles(self, lih_hamiltonian):
        doubles = [t for t in hmp2_ranked_terms(lih_hamiltonian) if t.is_double and t.importance > 0]
        importances = [t.importance for t in doubles]
        assert importances == sorted(importances, reverse=True)

    def test_select_ansatz_terms_truncates(self, lih_hamiltonian):
        assert len(select_ansatz_terms(lih_hamiltonian, 5)) == 5

    def test_select_rejects_negative(self, lih_hamiltonian):
        with pytest.raises(ValueError):
            select_ansatz_terms(lih_hamiltonian, -1)

    def test_full_pool_covers_all_spin_preserving_doubles(self, lih_hamiltonian):
        from repro.vqe import uccsd_excitation_terms

        pool = hmp2_ranked_terms(lih_hamiltonian)
        doubles_in_pool = {(t.creation, t.annihilation) for t in pool if t.is_double}
        enumerated = {
            (t.creation, t.annihilation)
            for t in uccsd_excitation_terms(
                lih_hamiltonian.n_spin_orbitals,
                lih_hamiltonian.n_electrons,
                include_singles=False,
            )
        }
        assert enumerated <= doubles_in_pool


class TestAnsatz:
    def test_reference_energy_is_hartree_fock(self, h2_hamiltonian):
        ansatz = UccAnsatz(n_qubits=4, n_electrons=2, terms=[])
        matrix = hamiltonian_sparse_matrix(h2_hamiltonian)
        result = optimize_ansatz(ansatz, matrix)
        assert np.isclose(result.energy, h2_hamiltonian.hartree_fock_energy, atol=1e-8)

    def test_parameter_count_validation(self, h2_hamiltonian):
        terms = hmp2_ranked_terms(h2_hamiltonian)[:1]
        ansatz = UccAnsatz(n_qubits=4, n_electrons=2, terms=list(terms))
        with pytest.raises(ValueError):
            ansatz.prepare_state([0.1, 0.2])

    def test_term_outside_register_rejected(self, h2_hamiltonian):
        from repro.vqe import ExcitationTerm

        ansatz = UccAnsatz(n_qubits=4, n_electrons=2, terms=[])
        with pytest.raises(ValueError):
            ansatz.add_term(ExcitationTerm(creation=(9,), annihilation=(0,)))

    def test_prepared_state_normalized(self, h2_hamiltonian):
        terms = hmp2_ranked_terms(h2_hamiltonian)[:1]
        ansatz = UccAnsatz(n_qubits=4, n_electrons=2, terms=list(terms))
        state = ansatz.prepare_state([0.3])
        assert np.isclose(np.linalg.norm(state), 1.0)


class TestAdaptiveVqe:
    def test_h2_one_term_reaches_fci(self, h2_hamiltonian):
        terms = hmp2_ranked_terms(h2_hamiltonian)
        result = adaptive_vqe(h2_hamiltonian, terms, max_terms=3, threshold=1e-7)
        assert result.converged
        assert result.n_terms[-1] == 1
        assert np.isclose(result.final_energy, result.exact_energy, atol=1e-6)

    def test_energies_monotone_nonincreasing(self, lih_hamiltonian):
        terms = hmp2_ranked_terms(lih_hamiltonian)
        result = adaptive_vqe(
            lih_hamiltonian, terms, max_terms=3, threshold=1e-9, maxiter=100
        )
        assert all(a >= b - 1e-8 for a, b in zip(result.energies, result.energies[1:]))

    def test_variational_bound(self, lih_hamiltonian):
        terms = hmp2_ranked_terms(lih_hamiltonian)
        result = adaptive_vqe(lih_hamiltonian, terms, max_terms=2, threshold=1e-9)
        exact = fci_ground_state_energy(lih_hamiltonian)
        assert all(energy >= exact - 1e-8 for energy in result.energies)

    def test_lih_reaches_chemical_accuracy(self, lih_hamiltonian):
        terms = hmp2_ranked_terms(lih_hamiltonian)
        result = adaptive_vqe(lih_hamiltonian, terms, max_terms=6)
        assert result.converged
        assert abs(result.final_energy - result.exact_energy) <= CHEMICAL_ACCURACY

    @pytest.mark.parametrize("max_terms", [0, -3])
    def test_non_positive_max_terms_raises(self, h2_hamiltonian, max_terms):
        """A run that adds no term has no final energy: it fails up front."""
        terms = hmp2_ranked_terms(h2_hamiltonian)
        with pytest.raises(ValueError, match=f"max_terms must be at least 1, got {max_terms}"):
            adaptive_vqe(h2_hamiltonian, terms, max_terms=max_terms)

    @pytest.mark.parametrize("max_terms", [None, 4])
    def test_no_ranked_terms_raises(self, h2_hamiltonian, max_terms):
        with pytest.raises(ValueError, match="at least one ranked term"):
            adaptive_vqe(h2_hamiltonian, [], max_terms=max_terms)

    def test_errors_reported(self, h2_hamiltonian):
        terms = hmp2_ranked_terms(h2_hamiltonian)
        result = adaptive_vqe(h2_hamiltonian, terms, max_terms=1, threshold=1e-9)
        assert len(result.errors()) == len(result.energies)
        assert all(error >= 0 for error in result.errors())
