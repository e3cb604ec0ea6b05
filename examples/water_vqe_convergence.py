"""Water ground-state energy convergence (the scenario behind Fig. 5).

Grows a UCCSD ansatz for the water molecule one HMP2-ranked excitation term at
a time and tracks the VQE energy estimate against the exact (FCI) energy of
the active space, reporting how many terms are needed to reach chemical
accuracy — the quantity Fig. 5 of the paper reports for prior art vs this
work (both reach it with the same number of terms, since the circuit
optimizations change gate counts, not energies).

Alongside each energy the table shows the CNOT cost of compiling that ansatz
prefix with the advanced pipeline: every prefix is one
:class:`repro.api.CompileRequest`, and the whole progression compiles in a
single memoized :func:`repro.api.compile_batch` call.

The full 14-spin-orbital water simulation of the paper takes minutes on a
laptop; this example defaults to a frozen-core active space of 5 spatial
orbitals (10 qubits) so it finishes quickly.  Pass ``--full`` for the larger
active space.

Run with:  python examples/water_vqe_convergence.py [--full] [--max-terms N]
"""

import argparse

from repro.api import CompileRequest, CompilerConfig, compile_batch
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.simulator import CHEMICAL_ACCURACY, fci_ground_state_energy
from repro.vqe import adaptive_vqe, hmp2_ranked_terms


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="use all non-core orbitals (12 qubits)")
    parser.add_argument("--max-terms", type=int, default=8, help="largest ansatz size to try")
    args = parser.parse_args()

    molecule = make_molecule("H2O")
    scf = run_rhf(molecule)
    n_active = None if args.full else 5
    hamiltonian = build_molecular_hamiltonian(
        scf, n_frozen_spatial_orbitals=1, n_active_spatial_orbitals=n_active
    )
    print(f"Hartree-Fock energy : {scf.energy:.6f} Ha")
    print(f"Active space        : {hamiltonian.n_spin_orbitals} spin orbitals, "
          f"{hamiltonian.n_electrons} electrons")

    exact = fci_ground_state_energy(hamiltonian)
    print(f"Exact (FCI) energy  : {exact:.6f} Ha")
    print()

    terms = hmp2_ranked_terms(hamiltonian)
    result = adaptive_vqe(
        hamiltonian, terms, max_terms=args.max_terms, exact_energy=exact
    )

    config = CompilerConfig(gamma_steps=10, seed=0)
    requests = [
        CompileRequest(
            terms=tuple(terms[:m]), n_qubits=hamiltonian.n_spin_orbitals, config=config
        )
        for m in result.n_terms
    ]
    compiled = compile_batch(requests, backends="advanced")

    print(f"{'M (ansatz terms)':>18}{'E_VQE (Ha)':>16}{'error (mHa)':>14}"
          f"{'chem. acc.':>12}{'CNOTs (Adv)':>13}")
    print("-" * 73)
    for m, energy, row in zip(result.n_terms, result.energies, compiled.results):
        error = abs(energy - exact)
        flag = "yes" if error <= CHEMICAL_ACCURACY else "no"
        cnots = row["advanced"].cnot_count
        print(f"{m:>18}{energy:>16.6f}{1000 * error:>14.3f}{flag:>12}{cnots:>13}")

    if result.converged:
        print(f"\nChemical accuracy reached with {result.n_terms[-1]} ansatz terms.")
    else:
        print(f"\nChemical accuracy not yet reached after {result.n_terms[-1]} terms "
              f"(error {1000 * abs(result.final_energy - exact):.3f} mHa).")


if __name__ == "__main__":
    main()
