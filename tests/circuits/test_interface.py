"""Tests for the interface CNOT-cancellation accounting (Sec. III-B / Fig. 4)."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    cnot,
    cnot_cost,
    exponential_sequence_circuit,
    hadamard,
    interface_cnot_reduction,
    optimize_circuit,
    pair_cnot_count,
    s_gate,
    sdg_gate,
    sequence_cnot_count,
)
from repro.operators import PauliString


class TestFigureFourExample:
    """P1 = XXXY, P2 = XXYX from Fig. 4 of the paper."""

    P1 = PauliString("XXXY")
    P2 = PauliString("XXYX")

    def test_shared_last_qubit_target(self):
        # Scenario (a): t1 = t2 = 4th qubit; 5 CNOTs cancel, one remains at the
        # interface, so the pair costs 6 + 6 - 5 = 7 CNOTs.
        saving = interface_cnot_reduction(self.P1, 3, self.P2, 3)
        assert saving == 5
        assert pair_cnot_count(self.P1, 3, self.P2, 3) == 7

    def test_shared_first_qubit_target(self):
        # Scenario (b): t1 = t2 = 1st qubit; 4 CNOTs cancel, two remain.
        saving = interface_cnot_reduction(self.P1, 0, self.P2, 0)
        assert saving == 4
        assert pair_cnot_count(self.P1, 0, self.P2, 0) == 8

    def test_target_choice_matters(self):
        assert pair_cnot_count(self.P1, 3, self.P2, 3) < pair_cnot_count(
            self.P1, 0, self.P2, 0
        )

    def test_different_targets_save_nothing(self):
        assert interface_cnot_reduction(self.P1, 0, self.P2, 3) == 0

    def test_residual_interface_block_is_one_cnot(self):
        """Certify the ω=1 credit: the residual block on the mismatched control
        qubit (X on P1, Y on P2) and the target is locally equivalent to CNOT."""
        block = Circuit(2)
        # Closing CNOT of P1 (control=mismatched qubit 0, target 1), the
        # residual basis changes, then the opening CNOT of P2.
        block.append(cnot(0, 1))
        block.extend([hadamard(0), sdg_gate(0), hadamard(0)])  # X -> Y basis change on the control
        block.extend([hadamard(1), s_gate(1), hadamard(1)])    # Y -> X basis change on the target
        block.append(cnot(0, 1))
        assert cnot_cost(block.to_unitary()) == 1

    def test_matched_interface_fully_cancels_in_peephole(self):
        """Where the formula credits ω=2 the peephole optimizer finds the cancellation."""
        p1, p2 = PauliString("XXZ"), PauliString("XXZ")
        raw = exponential_sequence_circuit([(p1, 0.3, 2), (p2, 0.5, 2)])
        optimized = optimize_circuit(raw)
        assert optimized.cnot_count == sequence_cnot_count([(p1, 2), (p2, 2)])
        # And the optimized circuit is still correct.
        assert np.allclose(
            optimized.to_unitary() @ optimized.to_unitary().conj().T, np.eye(8)
        )


class TestReductionRules:
    def test_rejects_invalid_targets(self):
        with pytest.raises(ValueError):
            interface_cnot_reduction(PauliString("XI"), 1, PauliString("XI"), 0)
        with pytest.raises(ValueError):
            interface_cnot_reduction(PauliString("XI"), 0, PauliString("XI"), 1)

    def test_rejects_mismatched_registers(self):
        with pytest.raises(ValueError):
            interface_cnot_reduction(PauliString("X"), 0, PauliString("XX"), 0)

    def test_identical_strings_merge_into_one_exponential(self):
        string = PauliString("XYZZ")
        saving = interface_cnot_reduction(string, 3, string, 3)
        # The whole interface cancels, leaving a single exponential's CNOTs.
        assert saving == 2 * (string.weight - 1)
        assert pair_cnot_count(string, 3, string, 3) == 2 * (string.weight - 1)

    def test_disjoint_strings_save_nothing(self):
        assert interface_cnot_reduction(PauliString("XXII"), 0, PauliString("IIZZ"), 3) == 0

    def test_saving_bounded_by_interface_cnots(self):
        rng = np.random.default_rng(1)
        labels = ["IXYZ"[i] for i in range(4)]
        for _ in range(50):
            a = PauliString([str(rng.choice(labels)) for _ in range(5)])
            b = PauliString([str(rng.choice(labels)) for _ in range(5)])
            if a.weight == 0 or b.weight == 0:
                continue
            ta, tb = a.support[-1], b.support[-1]
            saving = interface_cnot_reduction(a, ta, b, tb)
            assert 0 <= saving <= (a.weight - 1) + (b.weight - 1)


class TestSequenceCost:
    def test_empty_sequence(self):
        assert sequence_cnot_count([]) == 0

    def test_single_term(self):
        assert sequence_cnot_count([(PauliString("XYZ"), 2)]) == 4

    def test_path_cost_accumulates(self):
        p1, p2, p3 = PauliString("XXZ"), PauliString("XYZ"), PauliString("ZZZ")
        sequence = [(p1, 2), (p2, 2), (p3, 2)]
        expected = (
            4 + 4 + 4
            - interface_cnot_reduction(p1, 2, p2, 2)
            - interface_cnot_reduction(p2, 2, p3, 2)
        )
        assert sequence_cnot_count(sequence) == expected
