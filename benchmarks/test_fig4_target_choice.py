"""Benchmark for Fig. 4: the target-qubit choice changes CNOT cancellations.

The paper's example uses P1 = XXXY and P2 = XXYX.  With both targets on the
fourth qubit the pair compiles to 7 CNOTs; with both targets on the first
qubit it compiles to 8.  The advanced sorting must discover the better choice
automatically.
"""

import numpy as np
import pytest

from repro.core import RotationPlanes, advanced_sort
from repro.circuits import pair_cnot_count
from repro.operators import PackedPaulis, PauliString

P1 = PauliString("XXXY")
P2 = PauliString("XXYX")


def test_fig4_pair_costs():
    shared_fourth = pair_cnot_count(P1, 3, P2, 3)
    shared_first = pair_cnot_count(P1, 0, P2, 0)
    print(f"\n[Fig. 4] target=q4: {shared_fourth} CNOTs; target=q1: {shared_first} CNOTs")
    assert shared_fourth == 7
    assert shared_first == 8
    assert shared_fourth < shared_first


def test_fig4_advanced_sorting_finds_best_target(benchmark):
    rotations = RotationPlanes(
        PackedPaulis.from_strings([P1, P2]), np.array([0.3, 0.4]), np.array([0, 1])
    )
    result = benchmark.pedantic(
        advanced_sort,
        args=(rotations,),
        rounds=1,
        iterations=1,
    )
    print(f"\n[Fig. 4] advanced sorting result: {result.cnot_count} CNOTs "
          f"(targets {[t for _, t in result.ordered_rotations]})")
    assert result.cnot_count == 7
    # Two equally good solutions exist (shared target on the third or fourth
    # qubit); either way the targets must be shared and must avoid qubit 1,
    # whose collision pattern only reaches 8 CNOTs (the Fig. 4(b) scenario).
    targets = [target for _, target in result.ordered_rotations]
    assert targets[0] == targets[1]
    assert targets[0] in (2, 3)
