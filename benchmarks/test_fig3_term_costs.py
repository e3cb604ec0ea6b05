"""Benchmark for the per-term CNOT costs quoted in Sec. III-A / Fig. 3.

The paper quotes three per-term costs for a double excitation:

* 13 CNOTs — best known uncompressed implementation ([8]),
* 7 CNOTs — hybrid (one pair compressed, Fig. 3(a)),
* 2 CNOTs — bosonic (both pairs compressed, [8]).

This harness (a) certifies the 2-CNOT bosonic cost from first principles via
the two-qubit canonical invariants (the compressed bosonic term is a Givens
rotation, whose minimal CNOT cost is exactly 2), (b) checks the constants the
pipeline uses, and (c) compiles a generic uncompressed double excitation with
the advanced sorting to show it indeed costs far more than either compressed
form (our interface-cancellation compilation lands above the hand-optimized
13-CNOT circuit of [8], which exploits structure beyond pairwise
cancellation).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.circuits import cnot_cost
from repro.core import (
    BOSONIC_TERM_CNOT_COST,
    HYBRID_TERM_CNOT_COST,
    advanced_sort,
    terms_to_rotations,
)
from repro.operators import PauliString
from repro.transforms import JordanWignerTransform
from repro.vqe import ExcitationTerm

#: Best known CNOT count of an uncompressed double excitation, from [8].
FERMIONIC_DOUBLE_REFERENCE = 13


def bosonic_givens_unitary(theta: float) -> np.ndarray:
    """Compressed bosonic double excitation exp(θ(σ+σ- - σ-σ+)) on two qubits."""
    generator = 0.5j * theta * (
        PauliString("YX").to_dense() - PauliString("XY").to_dense()
    )
    return expm(generator)


class TestPerTermCosts:
    @pytest.mark.parametrize("theta", [0.17, 0.73, 1.91])
    def test_bosonic_term_costs_exactly_two_cnots(self, theta):
        assert cnot_cost(bosonic_givens_unitary(theta)) == 2

    def test_pipeline_constants(self):
        assert BOSONIC_TERM_CNOT_COST == 2
        assert HYBRID_TERM_CNOT_COST == 7
        assert BOSONIC_TERM_CNOT_COST < HYBRID_TERM_CNOT_COST < FERMIONIC_DOUBLE_REFERENCE

    def test_uncompressed_double_is_much_more_expensive(self, benchmark):
        term = ExcitationTerm(creation=(4, 6), annihilation=(0, 2))
        rotations = terms_to_rotations([term], JordanWignerTransform(8))

        result = benchmark.pedantic(
            advanced_sort,
            args=(rotations,),
            rounds=1,
            iterations=1,
        )
        print(
            f"\n[Fig. 3 costs] bosonic=2, hybrid=7, "
            f"uncompressed double (this compiler)={result.cnot_count}, "
            f"uncompressed double ([8], hand-optimized)=13"
        )
        # Eight weight-4 strings cost at most 48 CNOTs uncancelled; the sorter
        # must stay at or below that and above the hand-optimized 13 of [8].
        assert FERMIONIC_DOUBLE_REFERENCE <= result.cnot_count <= 48
        assert result.cnot_count > HYBRID_TERM_CNOT_COST
