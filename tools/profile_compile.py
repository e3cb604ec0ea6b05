"""cProfile wrapper for the compile path: top-N hotspots for a molecule/backend.

Future perf work should start from the same measurement this repo's perf PRs
did.  Runs ``compile_molecule_ansatz`` (all four Table-I backends) or a single
backend under ``cProfile`` and prints the top cumulative (or total-time)
hotspots, cold by default (the SCF/integral caches are cleared first, so the
profile covers the chemistry front-end too).  With ``--backend`` and
``--warm`` the chemistry runs before the profiler starts and the profile
covers the backend's compile alone.

``--sim`` switches to the verification core instead: it profiles dense
unitary construction (``Circuit.to_unitary``) and statevector application
(``Circuit.apply_to_statevector``) on a random circuit, the hot path of the
differential harnesses and hypothesis suites.

``--json PATH`` additionally runs the job under the :mod:`repro.obs` tracer
and writes a machine-readable report: the top cProfile entries (same sort and
count as the printed table) next to the collected span tree, so one file
answers both "which functions are hot" and "which pipeline stages are slow".

Usage:
    PYTHONPATH=src python tools/profile_compile.py LiH --n-terms 12
    PYTHONPATH=src python tools/profile_compile.py H2 --backend advanced --top 15
    PYTHONPATH=src python tools/profile_compile.py LiH --sort tottime --warm
    PYTHONPATH=src python tools/profile_compile.py LiH --json profile_LiH.json
    PYTHONPATH=src python tools/profile_compile.py --sim --sim-qubits 10 --sim-gates 200
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "molecule",
        nargs="?",
        default="LiH",
        help="molecule name (H2, LiH, BeH2, H2O, NH3, HF); ignored with --sim",
    )
    parser.add_argument("--n-terms", type=int, default=12, help="ansatz terms to select")
    parser.add_argument(
        "--backend",
        default=None,
        help="profile one backend (jw/bk/baseline/advanced) instead of all four",
    )
    parser.add_argument("--top", type=int, default=20, help="hotspots to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="keep the SCF/integral caches warm instead of clearing them first",
    )
    parser.add_argument(
        "--sim",
        action="store_true",
        help="profile the simulation engine (unitary + statevector) instead of compilation",
    )
    parser.add_argument("--sim-qubits", type=int, default=10, help="register size for --sim")
    parser.add_argument("--sim-gates", type=int, default=200, help="gate count for --sim")
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also trace the job and write cProfile top entries + span tree "
        "as JSON (compile mode only)",
    )
    args = parser.parse_args()

    if args.sim:
        profile_simulation(args)
        return

    from repro import compile_molecule_ansatz
    from repro.chemistry import clear_integral_caches, clear_scf_cache

    if not args.warm:
        clear_scf_cache()
        clear_integral_caches()

    if args.backend is None:
        def job():
            return compile_molecule_ansatz(args.molecule, n_terms=args.n_terms)
    else:
        from repro.api import CompileRequest, CompilerConfig, get_backend
        from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
        from repro.vqe import select_ansatz_terms

        backend = get_backend(args.backend)

        def build_request():
            molecule = make_molecule(args.molecule)
            frozen = 1 if args.molecule != "H2" else 0
            scf = run_rhf(molecule)
            hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=frozen)
            terms = select_ansatz_terms(hamiltonian, args.n_terms)
            return CompileRequest(
                terms=tuple(terms),
                n_qubits=hamiltonian.n_spin_orbitals,
                config=CompilerConfig(seed=0),
            )

        if args.warm:
            # The chemistry front end runs before the profiler starts, so
            # the profile covers the backend's compile alone.
            request = build_request()

            def job():
                return backend.compile(request)
        else:
            # Cold: SCF, Hamiltonian and term selection run inside the
            # profiled job, from the cleared caches, as in the all-backend
            # path.
            def job():
                return backend.compile(build_request())

    from repro.obs import get_metrics, trace_document, tracing

    profiler = cProfile.Profile()
    start = time.perf_counter()
    with tracing(enabled=args.json is not None) as tracer:
        profiler.enable()
        job()
        profiler.disable()
    elapsed = time.perf_counter() - start

    label = args.backend if args.backend is not None else "all backends"
    print(
        f"compile {args.molecule} n_terms={args.n_terms} ({label}, "
        f"{'warm' if args.warm else 'cold'}): {elapsed:.3f}s\n"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)

    if args.json is not None:
        report = {
            "molecule": args.molecule,
            "n_terms": args.n_terms,
            "backend": label,
            "warm": bool(args.warm),
            "elapsed_s": elapsed,
            "profile": {
                "sort": args.sort,
                "top": top_profile_entries(profiler, args.sort, args.top),
            },
            "trace": trace_document(
                tracer, metrics=get_metrics(), label=f"profile_compile:{label}"
            ),
        }
        args.json.write_text(json.dumps(report, indent=2))
        print(f"Wrote {args.json}")


def top_profile_entries(profiler, sort: str, top: int):
    """The first ``top`` cProfile rows under ``sort``, as plain dicts."""
    sort_index = {"cumulative": 3, "tottime": 2, "ncalls": 1}[sort]
    rows = []
    for (filename, line, function), row in pstats.Stats(profiler).stats.items():
        primitive_calls, calls, total_time, cumulative_time = row[:4]
        rows.append(
            {
                "function": f"{filename}:{line}({function})",
                "ncalls": calls,
                "primitive_calls": primitive_calls,
                "tottime_s": total_time,
                "cumtime_s": cumulative_time,
            }
        )
    keys = {1: "ncalls", 2: "tottime_s", 3: "cumtime_s"}
    rows.sort(key=lambda entry: entry[keys[sort_index]], reverse=True)
    return rows[:top]


def profile_simulation(args) -> None:
    """Profile unitary construction and statevector application (``--sim``)."""
    import numpy as np

    from repro.circuits import Circuit, Gate

    rng = np.random.default_rng(0)
    n = args.sim_qubits
    circuit = Circuit(n)
    single = ["H", "X", "S", "SDG"]
    for _ in range(args.sim_gates):
        draw = rng.random()
        if draw < 0.35:
            circuit.append(Gate(single[int(rng.integers(len(single)))], (int(rng.integers(n)),)))
        elif draw < 0.6:
            circuit.append(Gate("RZ", (int(rng.integers(n)),), float(rng.normal())))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            circuit.append(Gate("CNOT", (int(a), int(b))))
    probe = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    probe /= np.linalg.norm(probe)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    circuit.to_unitary()
    for _ in range(10):
        circuit.apply_to_statevector(probe)
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(
        f"simulation engine {n} qubits / {args.sim_gates} gates "
        f"(1x to_unitary + 10x apply_to_statevector): {elapsed:.3f}s\n"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)


if __name__ == "__main__":
    main()
