"""Quickstart: compile a small molecule's VQE ansatz through the unified API.

Runs the full stack end to end for LiH:

1. STO-3G Hartree-Fock (our own integrals, no external chemistry package),
2. HMP2 selection of the most important UCCSD excitation terms,
3. one :class:`repro.api.CompileRequest` compiled by every registered backend
   (Jordan-Wigner, Bravyi-Kitaev, the prior-art baseline and the paper's
   advanced pipeline) via :func:`repro.api.compile_batch`,
4. a printout in the spirit of one row of Table I, plus a warm-cache rerun
   showing the batch service memoizes identical requests.

Migration note: this example used to call ``compile_molecule_ansatz`` with
loose keyword options.  Those knobs now live in the frozen
:class:`repro.api.CompilerConfig`, and each flow is a named backend —
``get_backend("advanced").compile(request)`` runs the paper's flow (or
``AdvancedPipeline(CompilerConfig(...)).run(terms)`` for the raw result).

Run with:  python examples/quickstart.py
"""

from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileCache,
    CompileRequest,
    CompilerConfig,
    available_backends,
    compile_batch,
    get_backend,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.vqe import select_ansatz_terms

#: Table-I column order.
BACKENDS = tuple(DEFAULT_BACKEND_NAMES)

LABELS = {
    "jordan-wigner": "Jordan-Wigner",
    "bravyi-kitaev": "Bravyi-Kitaev",
    "baseline": "Prior art (baseline)",
    "advanced": "This work (advanced)",
}


def main() -> None:
    scf = run_rhf(make_molecule("LiH"))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
    terms = select_ansatz_terms(hamiltonian, 4)

    config = CompilerConfig(
        gamma_steps=20, sorting_population=16, sorting_generations=20, seed=0
    )
    request = CompileRequest(
        terms=tuple(terms), n_qubits=hamiltonian.n_spin_orbitals, config=config
    )

    print(f"Registered backends : {available_backends()}")
    print(f"Molecule            : LiH")
    print(f"Spin orbitals       : {request.resolved_n_qubits}")
    print(f"Ansatz terms (Ne)   : {len(terms)}")
    print()

    cache = CompileCache()
    batch = compile_batch([request], backends=BACKENDS, cache=cache)
    row = batch.results[0]

    print(f"{'flow':<22}{'CNOT count':>12}{'wall time':>12}")
    print("-" * 46)
    for name in BACKENDS:
        result = row[name]
        print(f"{LABELS[name]:<22}{result.cnot_count:>12}{result.wall_time_s:>11.3f}s")

    baseline = row["baseline"].cnot_count
    advanced = row["advanced"].cnot_count
    improvement = 100.0 * (1.0 - advanced / baseline) if baseline else 0.0
    print(f"\nImprovement over the baseline: {improvement:.1f}%")
    print(f"Advanced breakdown: {row['advanced'].breakdown}")

    # A single backend, directly:
    alone = get_backend("advanced").compile(request)
    assert alone.cnot_count == advanced

    # Warm cache: the same request list costs nothing the second time.
    warm = compile_batch([request], backends=BACKENDS, cache=cache)
    print(
        f"\nWarm rerun: {warm.cache_hits} cache hits, {warm.cache_misses} misses "
        f"({warm.wall_time_s * 1000:.1f} ms vs {batch.wall_time_s * 1000:.1f} ms cold)"
    )

    print("\nExcitation terms (HMP2 order):")
    for index, term in enumerate(terms):
        print(f"  {index:2d}. {term!r}  importance={term.importance:.3e}")


if __name__ == "__main__":
    main()
