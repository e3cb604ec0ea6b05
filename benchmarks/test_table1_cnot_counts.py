"""Benchmark regenerating Table I: CNOT counts under JW / BK / baseline / advanced.

Each benchmark compiles the HMP2-selected UCCSD ansatz of one molecule
through the unified API — one :class:`~repro.api.CompileRequest` fanned over
all four registered Table-I backends with :func:`repro.api.compile_batch` —
and prints the full Table-I row (all four columns plus the improvement
percentage).  Absolute counts differ from the published table — the
excitation-term lists and the baseline solver are regenerated from scratch —
but the qualitative structure the paper reports is asserted programmatically:

* the advanced pipeline never loses to the prior-art baseline,
* both beat the plain Jordan-Wigner and Bravyi-Kitaev compilations,
* the improvement over the baseline is positive for every molecule with
  compressible structure.

Run ``python benchmarks/run_table1.py`` for the full sweep including the
larger water progressions.
"""

import pytest

from repro.api import DEFAULT_BACKEND_NAMES, CompileRequest, CompilerConfig, compile_batch

#: Table-I column order, by canonical backend name.
BACKENDS = tuple(DEFAULT_BACKEND_NAMES)

#: (molecule, number of HMP2 terms) pairs benchmarked by default.  The larger
#: Table-I rows (NH3, H2O(17)) are exercised by the run_table1.py script.
CASES = [
    ("HF", 3),
    ("LiH", 3),
    ("BeH2", 6),
    ("H2O", 4),
    ("H2O", 6),
    ("H2O", 8),
]

CONFIG = CompilerConfig(gamma_steps=20, seed=0)


def _compile_all(hamiltonian, terms):
    request = CompileRequest(
        terms=tuple(terms), n_qubits=hamiltonian.n_spin_orbitals, config=CONFIG
    )
    row = compile_batch([request], backends=BACKENDS).results[0]
    return tuple(row[name].cnot_count for name in BACKENDS)


@pytest.mark.parametrize("molecule,n_terms", CASES, ids=[f"{m}-{n}" for m, n in CASES])
def test_table1_row(benchmark, molecule_data, molecule, n_terms):
    hamiltonian, ranked = molecule_data(molecule)
    terms = ranked[:n_terms]

    jw, bk, baseline, advanced = benchmark.pedantic(
        _compile_all, args=(hamiltonian, terms), rounds=1, iterations=1
    )

    improvement = 100.0 * (1.0 - advanced / baseline) if baseline else 0.0
    print(
        f"\n[Table I] {molecule}(Ne={len(terms)}): "
        f"JW={jw}  BK={bk}  GT={baseline}  Adv={advanced}  Improve={improvement:.2f}%"
    )

    # Structural claims of Table I.
    assert advanced <= baseline, "advanced pipeline must not lose to the prior art"
    assert advanced < min(jw, bk), "advanced pipeline must beat plain JW and BK"
    assert baseline <= max(jw, bk), "the baseline already improves on naive compilation"
    assert improvement >= 0.0


def test_table1_improvement_range(molecule_data):
    """Across the small molecules the improvement over the baseline is positive
    and of the same order as the paper's 3.5-24% range (we allow a wider band
    because the baseline re-implementation is not bit-identical to [9])."""
    improvements = []
    for molecule, n_terms in [("HF", 3), ("LiH", 3), ("H2O", 4)]:
        hamiltonian, ranked = molecule_data(molecule)
        jw, bk, baseline, advanced = _compile_all(hamiltonian, ranked[:n_terms])
        improvements.append(100.0 * (1.0 - advanced / baseline))
    assert all(value >= 0.0 for value in improvements)
    assert max(improvements) > 3.0
