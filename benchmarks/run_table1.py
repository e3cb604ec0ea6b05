"""Regenerate Table I of the paper (full sweep) through the unified API.

For every molecule of Table I this script selects the requested number of
HMP2-ranked UCCSD excitation terms, builds one
:class:`~repro.api.CompileRequest` per row, and compiles the whole sweep with
:func:`repro.api.compile_batch` across the four Table-I backends (JW, BK,
prior-art baseline "GT", and this work "Adv"), reporting the CNOT counts and
the improvement of Adv over GT.

The NH3 row and the deeper water progressions take several minutes in pure
Python; pass ``--quick`` to restrict the sweep to the fast rows, and
``--workers N`` to fan the compilations out over N processes.

Pass ``--topology {line,ring,grid,heavy-hex,all-to-all}`` to compile every
row against the smallest device of that family covering the register
(:func:`repro.hardware.topology_for`): each backend then reports routed
CNOT/SWAP counts, depth, two-qubit depth and a gate histogram next to the
abstract Table-I numbers, and the JSON rows carry the full routing metrics.

Pass ``--trace`` to run the sweep under the :mod:`repro.obs` tracer: every
row gets a ``table1.row`` span over the full compile/route/verify span tree,
the per-stage timings of the advanced pipeline print under each row, and the
collected trace is written both as a native trace document
(``--trace-output``, default ``benchmarks/trace_table1.json``) and as a
Chrome trace-event file next to it (``*.chrome.json``, loadable in
Perfetto / ``chrome://tracing``).

Usage:
    python benchmarks/run_table1.py [--quick] [--seed 0] [--workers N]
                                    [--topology KIND] [--trace]
"""

from __future__ import annotations

import argparse
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileCache,
    CompileRequest,
    CompilerConfig,
    compile_batch,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.hardware import TOPOLOGY_KINDS, topology_for
from repro.obs import (
    chrome_trace,
    enable_tracing,
    get_metrics,
    get_tracer,
    trace_document,
    validate_chrome_trace,
    write_trace,
)
from repro.vqe import hmp2_ranked_terms

#: Table-I column order, by canonical backend name.
BACKENDS = tuple(DEFAULT_BACKEND_NAMES)

#: Full Table-I style sweep: (molecule, frozen core, list of Ne values).
FULL_CASES = [
    ("HF", 1, [3]),
    ("LiH", 1, [3]),
    ("BeH2", 1, [9]),
    ("NH3", 1, [12]),
    ("H2O", 1, [4, 5, 6, 8, 9, 11, 12, 14, 16, 17]),
]

QUICK_CASES = [
    ("HF", 1, [3]),
    ("LiH", 1, [3]),
    ("BeH2", 1, [6]),
    ("H2O", 1, [4, 6, 8]),
]

#: Published Table I values (JW, BK, GT, Adv) for side-by-side comparison.
PAPER_TABLE1 = {
    ("HF", 3): (30, 29, 25, 19),
    ("LiH", 3): (30, 29, 25, 19),
    ("BeH2", 9): (70, 71, 60, 53),
    ("NH3", 52): (485, 607, 478, 461),
    ("H2O", 4): (42, 50, 33, 27),
    ("H2O", 5): (44, 52, 35, 29),
    ("H2O", 6): (46, 47, 37, 31),
    ("H2O", 8): (68, 88, 63, 50),
    ("H2O", 9): (71, 89, 66, 53),
    ("H2O", 11): (93, 110, 87, 67),
    ("H2O", 12): (95, 112, 89, 70),
    ("H2O", 14): (114, 140, 111, 88),
    ("H2O", 16): (135, 166, 131, 105),
    ("H2O", 17): (137, 168, 133, 107),
}


def build_requests(cases, seed: int, topology_kind=None):
    """One ``(molecule, request)`` pair per Table-I row."""
    config = CompilerConfig(gamma_steps=30, seed=seed)
    labeled = []
    for molecule_name, frozen, term_counts in cases:
        scf = run_rhf(make_molecule(molecule_name))
        hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=frozen)
        ranked = hmp2_ranked_terms(hamiltonian)
        row_config = config
        if topology_kind is not None:
            row_config = config.replace(
                topology=topology_for(topology_kind, hamiltonian.n_spin_orbitals)
            )
        for n_terms in term_counts:
            terms = ranked[: min(n_terms, len(ranked))]
            request = CompileRequest(
                terms=tuple(terms),
                n_qubits=hamiltonian.n_spin_orbitals,
                config=row_config,
            )
            labeled.append((molecule_name, request))
    return labeled


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run only the fast rows")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1, help="compile in N processes")
    parser.add_argument(
        "--topology",
        choices=TOPOLOGY_KINDS,
        default=None,
        help="compile against a device family and report routed metrics",
    )
    parser.add_argument("--output", type=Path, default=Path("benchmarks/results_table1.json"))
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect a repro.obs trace of the sweep and export it",
    )
    parser.add_argument(
        "--trace-output",
        type=Path,
        default=Path("benchmarks/trace_table1.json"),
        help="native trace document path (--trace only); the Chrome trace "
        "lands next to it as *.chrome.json",
    )
    args = parser.parse_args()

    if args.trace:
        enable_tracing()
    tracer = get_tracer()

    cases = QUICK_CASES if args.quick else FULL_CASES
    labeled = build_requests(cases, args.seed, topology_kind=args.topology)

    rows = []
    header = (
        f"{'Molecule':<9}{'Ne':>4}{'JW':>7}{'BK':>7}{'GT':>7}{'Adv':>7}{'Impr%':>8}"
        f"   | paper: {'JW':>4}{'BK':>5}{'GT':>5}{'Adv':>5}{'Impr%':>7}"
    )
    print(header)
    print("-" * len(header))

    # One batch per row so the multi-minute full sweep prints each Table-I
    # row as it completes; a single shared pool amortizes worker startup.
    cache = CompileCache()
    pool = ProcessPoolExecutor(max_workers=args.workers) if args.workers > 1 else None
    start = time.time()
    try:
        for molecule_name, request in labeled:
            row_start = time.time()
            with tracer.span(
                "table1.row", molecule=molecule_name, n_terms=len(request.terms)
            ):
                row = compile_batch(
                    [request], backends=BACKENDS, cache=cache, executor=pool
                ).results[0]
            elapsed = time.time() - row_start
            jw, bk, baseline, advanced = (row[name].cnot_count for name in BACKENDS)
            improvement = 100.0 * (1.0 - advanced / baseline) if baseline else 0.0
            paper = PAPER_TABLE1.get((molecule_name, len(request.terms)))
            if paper:
                paper_improvement = 100.0 * (1.0 - paper[3] / paper[2])
                paper_text = (
                    f"{paper[0]:>4}{paper[1]:>5}{paper[2]:>5}{paper[3]:>5}"
                    f"{paper_improvement:>7.2f}"
                )
            else:
                paper_text = f"{'-':>4}{'-':>5}{'-':>5}{'-':>5}{'-':>7}"
            print(
                f"{molecule_name:<9}{len(request.terms):>4}{jw:>7}{bk:>7}{baseline:>7}"
                f"{advanced:>7}{improvement:>8.2f}   |        {paper_text}   [{elapsed:.1f}s]"
            )
            routing = None
            if args.topology is not None:
                routing = {
                    name: {
                        "topology": row[name].routing.topology,
                        "cnot_count": row[name].routing.cnot_count,
                        "n_swaps": row[name].routing.n_swaps,
                        "depth": row[name].routing.depth,
                        "two_qubit_depth": row[name].routing.two_qubit_depth,
                        "gate_histogram": dict(row[name].routing.gate_histogram),
                    }
                    for name in BACKENDS
                }
                adv_routed = routing["advanced"]
                print(
                    f"{'':>13}routed on {adv_routed['topology']}: "
                    f"adv={adv_routed['cnot_count']} CNOTs, "
                    f"2q-depth={adv_routed['two_qubit_depth']}, "
                    f"swaps={adv_routed['n_swaps']}"
                )
            stage_timings = row["advanced"].stage_timings
            if args.trace and stage_timings:
                stages = "  ".join(
                    f"{stage}={seconds * 1000.0:.1f}ms"
                    for stage, seconds in stage_timings.items()
                )
                print(f"{'':>13}stages: {stages}")
            rows.append(
                {
                    "molecule": molecule_name,
                    "n_terms": len(request.terms),
                    "jw": jw,
                    "bk": bk,
                    "baseline_gt": baseline,
                    "advanced": advanced,
                    "improvement_percent": improvement,
                    "paper": paper,
                    "routing": routing,
                    "seconds": elapsed,
                    "stage_seconds": stage_timings,
                }
            )
    finally:
        if pool is not None:
            pool.shutdown()
    total_elapsed = time.time() - start
    print(
        f"\n{len(rows)} rows x {len(BACKENDS)} backends in {total_elapsed:.1f}s "
        f"(cache: {cache.hits} hits / {cache.misses} misses)"
    )
    args.output.write_text(json.dumps(rows, indent=2))
    print(f"Wrote {args.output}")

    if args.trace:
        document = trace_document(tracer, metrics=get_metrics(), label="table1")
        write_trace(args.trace_output, document)
        chrome = chrome_trace(tracer, process_name="run_table1")
        n_events = validate_chrome_trace(chrome)
        chrome_path = args.trace_output.with_suffix(".chrome.json")
        chrome_path.write_text(json.dumps(chrome))
        print(
            f"Wrote {args.trace_output} and {chrome_path} "
            f"({n_events} spans; open in Perfetto or render with "
            f"tools/trace_report.py)"
        )


if __name__ == "__main__":
    main()
