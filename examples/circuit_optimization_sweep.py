"""Table-I style sweep: CNOT counts of several molecules under all four flows.

For every requested molecule the script selects the ``n_terms`` most important
HMP2 excitation terms, builds one :class:`repro.api.CompileRequest`, and
compiles the whole sweep in a single :func:`repro.api.compile_batch` call
over the four registered backends (Jordan-Wigner, Bravyi-Kitaev, the
prior-art baseline and the paper's advanced pipeline), printing a table in
the format of Table I.  Pass ``--workers N`` to spread the compilations over
N processes.  Absolute counts differ from the published table because the
excitation-term lists are regenerated from our own Hartree-Fock/HMP2 stack
and the baseline solvers are re-implementations, but the ordering
``Adv <= GT <= min(JW, BK)`` and the size of the improvements reproduce the
paper's findings.

Run with:  python examples/circuit_optimization_sweep.py [--molecules HF LiH ...]
"""

import argparse

from repro.api import DEFAULT_BACKEND_NAMES, CompileRequest, CompilerConfig, compile_batch
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.vqe import select_ansatz_terms

#: Table-I column order.
BACKENDS = tuple(DEFAULT_BACKEND_NAMES)

#: Default (molecule, number of excitation terms) pairs, mirroring Table I's
#: "reach chemical accuracy" rows for the small molecules plus a water row.
DEFAULT_CASES = [
    ("HF", 3),
    ("LiH", 3),
    ("BeH2", 6),
    ("H2O", 5),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--molecules", nargs="*", default=None,
        help="molecule names to sweep (default: HF LiH BeH2 H2O)",
    )
    parser.add_argument("--terms", type=int, default=None, help="override the term count")
    parser.add_argument("--workers", type=int, default=1, help="compile in N processes")
    args = parser.parse_args()

    if args.molecules:
        cases = [(name, args.terms or 4) for name in args.molecules]
    else:
        cases = DEFAULT_CASES

    config = CompilerConfig(gamma_steps=20, seed=0)
    labeled = []
    for name, n_terms in cases:
        frozen = 1 if name != "H2" else 0
        scf = run_rhf(make_molecule(name))
        hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=frozen)
        terms = select_ansatz_terms(hamiltonian, n_terms)
        labeled.append(
            (
                name,
                CompileRequest(
                    terms=tuple(terms),
                    n_qubits=hamiltonian.n_spin_orbitals,
                    config=config,
                ),
            )
        )

    batch = compile_batch(
        [request for _, request in labeled], backends=BACKENDS, workers=args.workers
    )

    header = f"{'Molecule':<10}{'Ne':>4}{'JW':>8}{'BK':>8}{'GT':>8}{'Adv':>8}{'Improve(%)':>12}"
    print(header)
    print("-" * len(header))
    for (name, request), row in zip(labeled, batch.results):
        jw, bk, baseline, advanced = (row[key].cnot_count for key in BACKENDS)
        improvement = 100.0 * (1.0 - advanced / baseline) if baseline else 0.0
        print(
            f"{name:<10}{len(request.terms):>4}{jw:>8}{bk:>8}{baseline:>8}{advanced:>8}"
            f"{improvement:>12.2f}"
        )
    print(f"\nCompiled {len(labeled)} molecules x {len(BACKENDS)} backends "
          f"in {batch.wall_time_s:.1f}s")


if __name__ == "__main__":
    main()
