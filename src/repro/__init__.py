"""repro — CNOT-optimized compilation of fermionic VQE simulations.

Reproduction of Wang, Cian, Li, Markov and Nam, *Ever more optimized
simulations of fermionic systems on a quantum computer* (DAC 2023,
arXiv:2303.03460).

The package is organised bottom-up:

* :mod:`repro.operators` — Pauli strings as symplectic bit-planes;
* :mod:`repro.transforms` — Jordan-Wigner, Bravyi-Kitaev, parity and
  generalized GL(N,2) fermion-to-qubit transformations;
* :mod:`repro.circuits` — circuit IR, Pauli-exponential synthesis, CNOT
  cancellation accounting and peephole optimization;
* :mod:`repro.optimizers` — graph coloring, GTSP local search, particle
  swarm, TSP heuristics;
* :mod:`repro.chemistry` — STO-3G integrals, Hartree-Fock, molecular
  Hamiltonians and MP2;
* :mod:`repro.simulator` — exact N-electron-sector statevector simulation and
  FCI references;
* :mod:`repro.vqe` — UCCSD terms, HMP2 ordering and the adaptive VQE loop;
* :mod:`repro.baselines` — the prior-art compiler (the paper's "GT" column);
* :mod:`repro.core` — the paper's contribution as a staged pipeline: hybrid
  encoding, advanced sorting and the advanced fermion-to-qubit transformation
  (the Fig. 2 flow);
* :mod:`repro.api` — the unified compilation API: the
  :class:`~repro.api.CompilerBackend` protocol, the string-keyed backend
  registry, the frozen :class:`~repro.api.CompilerConfig`, and the memoized
  :func:`~repro.api.compile_batch` service;
* :mod:`repro.hardware` — device coupling-graph topologies (line, ring,
  grid, heavy-hex, custom), SABRE-style SWAP routing, and topology-steered
  Pauli-exponential synthesis; set ``CompilerConfig(topology=...)`` and every
  backend reports routed CNOT/SWAP/depth metrics next to the Table-I counts;
* :mod:`repro.service` — compile-as-a-service: an asyncio job API
  (submit/status/result/cancel, priorities, backpressure, in-flight dedup)
  over a persistent sharded on-disk compile cache shared across processes,
  with per-tier hit-rate and latency metrics.

Quickstart
----------
Every compilation flow is a backend behind one interface:

>>> from repro.api import CompileRequest, CompilerConfig, get_backend
>>> request = CompileRequest(terms=terms, config=CompilerConfig(seed=0))
>>> get_backend("advanced").compile(request).cnot_count

Batches — many ansatz sizes, several backends — compile in one memoized call:

>>> from repro.api import compile_batch
>>> batch = compile_batch([request], backends=("jw", "bk", "gt", "advanced"))
>>> batch.results[0]["advanced"].breakdown

The molecule-level convenience API returns a Table-I-style row:

>>> from repro import compile_molecule_ansatz
>>> report = compile_molecule_ansatz("LiH", n_terms=4)
>>> report.advanced_cnot_count <= report.jordan_wigner_cnot_count
True

Ablations
---------
An ablation swaps one stage of the Fig. 2 flow; the config has no switches:

>>> from repro.core import AdvancedPipeline, identity_gamma_stage
>>> pipeline = AdvancedPipeline().with_stage("gamma_search", identity_gamma_stage)
>>> pipeline.run(terms).cnot_count
"""

from dataclasses import dataclass
from typing import List, Optional

__version__ = "0.1.0"

from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    available_backends,
    compile_batch,
    get_backend,
    register_backend,
)
from repro.baselines import BaselineCompiler, naive_cnot_count
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import AdvancedPipeline
from repro.transforms import BravyiKitaevTransform, JordanWignerTransform
from repro.vqe import ExcitationTerm, select_ansatz_terms


@dataclass
class CompilationReport:
    """CNOT counts of one molecule's ansatz under the Table-I compilation flows."""

    molecule: str
    n_terms: int
    n_qubits: int
    jordan_wigner_cnot_count: int
    bravyi_kitaev_cnot_count: int
    baseline_cnot_count: int
    advanced_cnot_count: int
    terms: List[ExcitationTerm]

    @property
    def improvement_over_baseline(self) -> float:
        """Fractional improvement of the advanced flow over the prior art."""
        if self.baseline_cnot_count == 0:
            return 0.0
        return 1.0 - self.advanced_cnot_count / self.baseline_cnot_count


def compile_molecule_ansatz(
    molecule_name: str,
    n_terms: int,
    n_frozen_spatial_orbitals: int = 1,
    config: Optional[CompilerConfig] = None,
    cache: Optional[CompileCache] = None,
    workers: int = 1,
) -> CompilationReport:
    """End-to-end convenience API: molecule name in, Table-I-style row out.

    Runs Hartree-Fock, selects the ``n_terms`` most important HMP2 excitation
    terms, and compiles them through :func:`repro.api.compile_batch` with the
    four flows compared in Table I of the paper (JW, BK, prior-art baseline,
    and this work's advanced pipeline).  ``config`` (default
    ``CompilerConfig()``) controls every knob of every flow; each flow runs
    in full, so an ablation runs :class:`~repro.core.AdvancedPipeline` with
    a substituted stage instead.
    """
    molecule = make_molecule(molecule_name)
    frozen = n_frozen_spatial_orbitals if molecule_name != "H2" else 0
    scf = run_rhf(molecule)
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=frozen)
    terms = select_ansatz_terms(hamiltonian, n_terms)
    n_qubits = hamiltonian.n_spin_orbitals

    request = CompileRequest(
        terms=tuple(terms),
        n_qubits=n_qubits,
        config=config if config is not None else CompilerConfig(),
    )
    row = compile_batch(
        [request],
        backends=tuple(DEFAULT_BACKEND_NAMES),
        workers=workers,
        cache=cache,
    ).results[0]

    return CompilationReport(
        molecule=molecule_name,
        n_terms=len(terms),
        n_qubits=n_qubits,
        jordan_wigner_cnot_count=row["jordan-wigner"].cnot_count,
        bravyi_kitaev_cnot_count=row["bravyi-kitaev"].cnot_count,
        baseline_cnot_count=row["baseline"].cnot_count,
        advanced_cnot_count=row["advanced"].cnot_count,
        terms=list(terms),
    )


__all__ = [
    "__version__",
    "CompilationReport",
    "compile_molecule_ansatz",
    # unified API
    "DEFAULT_BACKEND_NAMES",
    "CompileCache",
    "CompileRequest",
    "CompileResult",
    "CompilerConfig",
    "available_backends",
    "compile_batch",
    "get_backend",
    "register_backend",
    # pipeline
    "AdvancedPipeline",
    "BaselineCompiler",
    "naive_cnot_count",
]
