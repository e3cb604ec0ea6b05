"""One SHA-256 over every deterministic compile output on a fixed input set.

A change that claims bit-identical outputs runs this on the old and the new
tree and compares the two lines.  The digest covers, for every compile:

* the backend, CNOT count, qubit count, breakdown and degraded flags;
* the compiled ``(label, repr(angle), target)`` sequence
  (:func:`repro.api.compiled_rotation_sequence`);
* the advanced flow's Γ and the baseline's transformation matrix.

Wall-clock fields (``wall_time_s``, ``stage_timings``) are left out.

A second line hashes what the verifier sees: for every advanced compile on
the grid, the canonical :func:`repro.verify.rotation_product_form` of its
fermionic circuit — each rotation's ``(x, z, repr(angle))`` and the Clifford
frame's ``generator_images()``.

A third line hashes the SWAP router: every advanced grid compile's fermionic
circuit is routed by :func:`repro.hardware.route_circuit` at its config seed
on a line, a ring and a 2-row grid of the register's size, and each result's
gates, SWAP count and final layout enter the digest.

One more line per backend hashes that backend's compile lines alone, so a
changed first line names the backend that moved.

A budgeted line hashes advanced compiles: the 12 grid cells at config
seed 0 with ``gamma_budget_steps=3`` and ``sorting_budget_rounds=1``, so the
truncated Γ walk and the truncated sort are pinned too.

A last line pins the chemistry front end: for H2, LiH, BeH2, H2O and NH3,
the bytes of S, H_core and the ERI tensor, the SCF energy and orbital
coefficients, and the HMP2 ranking (terms with their importances, and the
MP2 amplitudes behind them).

The inputs are all four backends on the Table-I grid (LiH/BeH2/H2O/NH3 ×
8/20/30 HMP2 terms), the LiH 1..30 sweep and BeH2 4..12, at config seeds
0–2, with one frozen core orbital as the benchmark uses.

``--check FILE`` compares the printed lines with a recorded set (CI checks
``tests/golden/output_digest.txt``) and exits 1 on any difference.

Usage:
    PYTHONPATH=src python tools/output_digest.py
    PYTHONPATH=src python tools/output_digest.py --seeds 0 --verbose
    PYTHONPATH=src python tools/output_digest.py --check tests/golden/output_digest.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    compiled_rotation_sequence,
    get_backend,
)
from repro.chemistry import (
    build_molecular_hamiltonian,
    make_molecule,
    ranked_double_excitations,
    run_rhf,
)
from repro.hardware import Topology, route_circuit
from repro.verify import rotation_product_form
from repro.vqe import select_ansatz_terms

FROZEN_CORE = 1
GRID = [(m, n) for m in ("LiH", "BeH2", "H2O", "NH3") for n in (8, 20, 30)]
BUDGETED = CompilerConfig(seed=0, gamma_budget_steps=3, sorting_budget_rounds=1)
SWEEPS = [("LiH", n) for n in range(1, 31)] + [("BeH2", n) for n in range(4, 13)]
CHEMISTRY = ("H2", "LiH", "BeH2", "H2O", "NH3")


def ranked_terms(molecule: str) -> Tuple[int, list]:
    """``(n_qubits, whole HMP2 ranking)`` of a molecule."""
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=FROZEN_CORE
    )
    return hamiltonian.n_spin_orbitals, select_ansatz_terms(hamiltonian, None)


def chemistry_lines(molecule: str) -> Iterator[str]:
    """A molecule's integrals, SCF solution and HMP2 ranking, one line each.

    The core is frozen as in the compiles, except where it is the only
    occupied orbital (H2).
    """
    scf = run_rhf(make_molecule(molecule))
    yield molecule
    for matrix in (scf.overlap, scf.core_hamiltonian, scf.electron_repulsion):
        yield matrix.tobytes().hex()
    yield repr(scf.energy)
    yield scf.orbital_coefficients.tobytes().hex()
    frozen = FROZEN_CORE if scf.n_occupied > FROZEN_CORE else 0
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=frozen)
    for term in select_ansatz_terms(hamiltonian, None):
        yield f"{term.creation} {term.annihilation} {term.importance!r}"
    for amplitude in ranked_double_excitations(hamiltonian):
        yield (
            f"{amplitude.occupied} {amplitude.virtual} "
            f"{amplitude.amplitude!r} {amplitude.energy!r}"
        )


def result_lines(result: CompileResult, terms: Sequence) -> Iterator[str]:
    """The deterministic fields of one compile result, one line each."""
    yield f"{result.backend} {result.cnot_count} {result.n_qubits}"
    yield repr(sorted(result.breakdown.items()))
    yield f"degraded {result.degraded} {result.degraded_stages}"
    for string, angle, target in compiled_rotation_sequence(result, terms):
        yield f"{string.to_label()} {angle!r} {target}"
    details = result.details
    for name in ("gamma", "transform_matrix"):
        matrix = getattr(details, name, None)
        if matrix is not None:
            matrix = np.asarray(matrix)
            yield f"{name} {matrix.shape} {matrix.astype(np.uint8).tobytes().hex()}"


def verify_lines(result: CompileResult) -> Iterator[str]:
    """The canonical rotation-product form of an advanced compile, one line each."""
    form = rotation_product_form(result.details.fermionic_circuit())
    for rotation in form.rotations:
        yield f"{rotation.x} {rotation.z} {rotation.angle!r}"
    for sign, image in form.frame.generator_images():
        yield f"{sign} {image.to_label()}"


def routing_lines(result: CompileResult, seed: int) -> Iterator[str]:
    """SABRE results of an advanced compile on a line, a ring and a 2-row grid."""
    circuit = result.details.fermionic_circuit()
    n = circuit.n_qubits
    for topology in (Topology.line(n), Topology.ring(n), Topology.grid(2, n // 2)):
        routed = route_circuit(circuit, topology, seed=seed)
        yield f"{topology.name} {routed.n_swaps} {routed.final_layout}"
        for gate in routed.circuit:
            yield f"{gate.name} {gate.qubits} {gate.parameter!r}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--verbose", action="store_true", help="also print one digest per cell"
    )
    parser.add_argument(
        "--check", metavar="FILE", help="exit 1 unless the digest lines equal FILE's"
    )
    args = parser.parse_args()

    cells: List[Tuple[str, int]] = list(dict.fromkeys(GRID + SWEEPS))
    rankings = {molecule: ranked_terms(molecule) for molecule, _ in cells}
    total = hashlib.sha256()
    verified = hashlib.sha256()
    routings = hashlib.sha256()
    backends = {name: hashlib.sha256() for name in DEFAULT_BACKEND_NAMES}
    compiles = 0
    forms = 0
    for seed in args.seeds:
        config = CompilerConfig(seed=seed)
        for molecule, n_terms in cells:
            n_qubits, ranking = rankings[molecule]
            terms = tuple(ranking[:n_terms])
            request = CompileRequest(terms=terms, n_qubits=n_qubits, config=config)
            cell = hashlib.sha256()
            for name in DEFAULT_BACKEND_NAMES:
                result = get_backend(name).compile(request)
                for line in result_lines(result, terms):
                    cell.update(line.encode() + b"\n")
                    backends[name].update(line.encode() + b"\n")
                compiles += 1
                if name == "advanced" and (molecule, n_terms) in GRID:
                    for line in verify_lines(result):
                        verified.update(line.encode() + b"\n")
                    for line in routing_lines(result, seed):
                        routings.update(line.encode() + b"\n")
                    forms += 1
            total.update(cell.digest())
            if args.verbose:
                print(f"seed {seed} {molecule}/{n_terms} {cell.hexdigest()[:16]}")
    lines = [
        f"{total.hexdigest()}  ({compiles} compiles, config seeds {args.seeds})",
        f"{verified.hexdigest()}  ({forms} grid rotation-product forms)",
        f"{routings.hexdigest()}  ({forms} grid circuits x line/ring/2-row grid)",
    ]
    per_backend = compiles // len(backends)
    lines += [
        f"{digest.hexdigest()}  ({per_backend} {name} compiles)"
        for name, digest in backends.items()
    ]
    budgeted = hashlib.sha256()
    for molecule, n_terms in GRID:
        n_qubits, ranking = rankings[molecule]
        terms = tuple(ranking[:n_terms])
        request = CompileRequest(terms=terms, n_qubits=n_qubits, config=BUDGETED)
        for line in result_lines(get_backend("advanced").compile(request), terms):
            budgeted.update(line.encode() + b"\n")
    lines.append(
        f"{budgeted.hexdigest()}  ({len(GRID)} budgeted advanced grid compiles, "
        f"gamma_budget_steps={BUDGETED.gamma_budget_steps}, "
        f"sorting_budget_rounds={BUDGETED.sorting_budget_rounds}, "
        f"config seed {BUDGETED.seed})"
    )
    chemistry = hashlib.sha256()
    for molecule in CHEMISTRY:
        for line in chemistry_lines(molecule):
            chemistry.update(line.encode() + b"\n")
    lines.append(
        f"{chemistry.hexdigest()}  (S, H_core, ERI, SCF and HMP2 ranking of "
        f"{', '.join(CHEMISTRY)})"
    )
    print("\n".join(lines))
    if args.check is not None:
        with open(args.check, encoding="utf-8") as recorded:
            expected = recorded.read().splitlines()
        if lines != expected:
            missing = [line for line in expected if line not in lines]
            sys.exit(f"output digest differs from {args.check}; not reproduced: {missing}")


if __name__ == "__main__":
    main()
