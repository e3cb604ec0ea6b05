"""The benchmark's three workloads, driven through the public ``repro`` API.

Every workload takes the run's ``--seed`` and turns it into the order in
which its inputs reach the program; the compiler config seeds are pinned per
workload (see ``perfbench/README.md``), so every count the benchmark reports
is an exact function of the code under test.

A workload exposes the same small protocol to ``run.py``:

* ``prepare()`` builds the inputs (timed several times for ``setup_s``);
* ``warm()`` runs the declared warm-up once;
* ``run_pass()`` runs one timed pass and returns a :class:`PassResult`;
* ``close()`` releases what ``warm()`` started.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
import shutil
import time
import traceback
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    compile_batch,
    get_backend,
)
from repro.chemistry import (
    build_molecular_hamiltonian,
    clear_integral_caches,
    clear_scf_cache,
    make_molecule,
    run_rhf,
)
from repro.circuits import Circuit
from repro.hardware import Topology, route_circuit
from repro.obs import span
from repro.service import CompileService, PersistentCompileCache
from repro.verify import EquivalenceReport, assert_implements_rotations
from repro.vqe import select_ansatz_terms
from speed import one_vcpu, probe, speed_factor

BACKENDS: Tuple[str, ...] = tuple(DEFAULT_BACKEND_NAMES)
FROZEN_CORE = 1


@dataclass
class Job:
    """One timed job and the outputs the checker reads afterwards."""

    key: Tuple
    request: Optional[CompileRequest]
    latency_s: float = 0.0
    results: Dict[str, CompileResult] = field(default_factory=dict)
    error: Optional[str] = None
    #: grid_cold only: the synthesized advanced circuit, its SABRE routing
    #: on a line and the in-job verify outcome.
    circuit: Optional[Circuit] = None
    route_swaps: Optional[int] = None
    verify_report: Optional[EquivalenceReport] = None
    verify_error: Optional[str] = None
    #: service_mixed only: the tier that served the request.
    tier: Optional[str] = None
    #: Host-speed factor (see ``speed.py``); ``latency_s * speed`` is the
    #: latency at nominal host speed.
    speed: float = 1.0


@dataclass
class PassResult:
    #: Seconds the pass took (for a single client: its jobs, probes excluded).
    wall_s: float
    #: ``wall_s`` at nominal host speed.
    adjusted_wall_s: float
    jobs: List[Job]
    #: Per-pass layer counters that live outside the span tree.
    stats: Dict[str, float] = field(default_factory=dict)


def ansatz_terms(molecule: str, n_terms: Optional[int] = None):
    """SCF -> Hamiltonian -> HMP2 term selection; ``(n_qubits, terms)``.

    ``n_terms=None`` returns the whole HMP2 ranking, which callers slice.
    """
    with span("bench.chemistry.scf", molecule=molecule):
        scf = run_rhf(make_molecule(molecule))
    with span("bench.chemistry.hamiltonian", molecule=molecule):
        hamiltonian = build_molecular_hamiltonian(
            scf, n_frozen_spatial_orbitals=FROZEN_CORE
        )
    with span("bench.vqe.select_terms", n_terms=n_terms):
        terms = select_ansatz_terms(hamiltonian, n_terms)
    return hamiltonian.n_spin_orbitals, tuple(terms)


def rotation_pairs(result: CompileResult) -> List[Tuple[Any, float]]:
    """The advanced result's compiled ``(P, θ)`` sequence, first-applied-first."""
    return [
        (rotation.string, rotation.angle)
        for rotation, _ in result.details.sorting.ordered_rotations
    ]


def pass_order(seed: int, index: int, items: List) -> List:
    """``items`` in the order of pass ``index`` of the run seeded ``seed``.

    Every pass gets its own order, so one run averages over several
    orderings instead of depending on a single one.
    """
    ordered = list(items)
    random.Random(seed * 1_000_003 + index).shuffle(ordered)
    return ordered


def clear_chemistry_caches() -> None:
    clear_scf_cache()
    clear_integral_caches()


class JobTimer:
    """Runs jobs back to back, with a speed probe at every job boundary.

    A long job can also call :meth:`split` between its layers: each segment
    is then scaled by the probes at its own two ends, and the probes' own
    time is left out of the job's latency.
    """

    def __init__(self):
        self._probe = probe()

    def split(self) -> None:
        end = time.perf_counter()
        after = probe()
        self._raw += end - self._start
        self._adjusted += (end - self._start) * speed_factor(self._probe, after)
        self._probe = after
        self._start = time.perf_counter()

    def run(self, job: Job, body) -> Job:
        """Run ``body(job, split)`` as one timed job; a raised error fails it."""
        self._raw = self._adjusted = 0.0
        self._start = time.perf_counter()
        try:
            body(job, self.split)
        except Exception:  # the loop must go on; the failure is counted and reported
            job.error = traceback.format_exc(limit=4)
        self.split()
        job.latency_s = self._raw
        job.speed = self._adjusted / self._raw
        return job


def back_to_back_pass(jobs: List[Job], body) -> PassResult:
    """One pass of a single closed-loop client running ``jobs`` in order."""
    with one_vcpu():
        timer = JobTimer()
        jobs = [timer.run(job, body) for job in jobs]
    return PassResult(
        wall_s=sum(job.latency_s for job in jobs),
        adjusted_wall_s=sum(job.latency_s * job.speed for job in jobs),
        jobs=jobs,
    )


# ----------------------------------------------------------------------
# grid_cold: the Table-I path from cold chemistry caches, one cell per job
# ----------------------------------------------------------------------
class GridCold:
    name = "grid_cold"
    #: Three passes of 12 cells: p72 is the highest percentile with 10 of
    #: the 36 samples beyond it.
    tail_percentile = 72
    min_passes = 3
    molecules = ("LiH", "BeH2", "H2O", "NH3")
    term_counts = (8, 20, 30)
    config_seed = 0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.config = CompilerConfig(seed=self.config_seed)
        self.cells: List[Tuple[str, int]] = []
        self._passes = 0

    def prepare(self) -> None:
        self.cells = [(m, n) for m in self.molecules for n in self.term_counts]

    def warm(self) -> None:
        # Touch every layer once on a tiny input so lazy imports and first-
        # call set-up do not land on whichever cell the seed puts first.
        self._cell(Job(key=("LiH", 2), request=None), split=lambda: None)
        clear_chemistry_caches()

    def _cell(self, job: Job, split) -> None:
        molecule, n_terms = job.key
        clear_chemistry_caches()
        n_qubits, terms = ansatz_terms(molecule, n_terms)
        request = CompileRequest(terms=terms, n_qubits=n_qubits, config=self.config)
        job.request = request
        for name in BACKENDS:
            split()
            with span(f"bench.backend.{name}"):
                job.results[name] = get_backend(name).compile(request)
        split()
        advanced = job.results["advanced"]
        with span("bench.circuits.synthesize"):
            circuit = advanced.details.fermionic_circuit()
        with span("bench.hardware.route"):
            routed = route_circuit(
                circuit, Topology.line(circuit.n_qubits), seed=self.config_seed
            )
        split()
        job.circuit = circuit
        job.route_swaps = routed.n_swaps
        try:
            with span("bench.verify.check"):
                job.verify_report = assert_implements_rotations(
                    circuit, rotation_pairs(advanced)
                )
        except AssertionError as exc:
            job.verify_error = str(exc)

    def run_pass(self) -> PassResult:
        cells = pass_order(self.seed, self._passes, self.cells)
        self._passes += 1
        return back_to_back_pass([Job(key=cell, request=None) for cell in cells], self._cell)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# sweep_warm: many small LiH compiles through compile_batch, shared cache
# ----------------------------------------------------------------------
class SweepWarm:
    name = "sweep_warm"
    #: At least 4 passes of 60 steps: p95 leaves 12 of 240 samples beyond.
    tail_percentile = 95
    min_passes = 4
    molecule = "LiH"
    term_counts = tuple(range(1, 31))
    config_seeds = (0, 1)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        #: One list of ``((config_seed, n_terms), request)`` steps per config seed.
        self.config_passes: List[List[Tuple[Tuple[int, int], CompileRequest]]] = []
        self._passes = 0

    def prepare(self) -> None:
        n_qubits, ranked = ansatz_terms(self.molecule)
        self.config_passes = [
            [
                (
                    (config_seed, n),
                    CompileRequest(
                        terms=ranked[:n],
                        n_qubits=n_qubits,
                        config=CompilerConfig(seed=config_seed),
                    ),
                )
                for n in self.term_counts
            ]
            for config_seed in self.config_seeds
        ]

    def warm(self) -> None:
        request = self.config_passes[0][0][1]
        small = CompileRequest(
            terms=request.terms[:2], n_qubits=request.n_qubits, config=request.config
        )
        compile_batch([small], backends=BACKENDS, cache=CompileCache())

    def run_pass(self) -> PassResult:
        cache = CompileCache()
        stats = {"batch.cache_hits": 0, "batch.cache_misses": 0}

        def step(job: Job, split) -> None:
            with span("bench.batch.compile_batch"):
                batch = compile_batch([job.request], backends=BACKENDS, cache=cache)
            job.results = dict(batch.results[0])
            stats["batch.cache_hits"] += batch.cache_hits
            stats["batch.cache_misses"] += batch.cache_misses

        # The seed orders the steps inside each config seed's part; the second
        # part always follows the first, so JW/BK (config-blind) are served
        # from the shared cache there.
        steps = [
            step_
            for part in self.config_passes
            for step_ in pass_order(self.seed, self._passes, part)
        ]
        self._passes += 1
        result = back_to_back_pass(
            [Job(key=key, request=request) for key, request in steps], step
        )
        result.stats = stats
        return result

    def close(self) -> None:
        pass


def _probed_call(fn, *args, **kwargs):
    before = probe()
    result = fn(*args, **kwargs)
    return result, before, probe()


class ProbedExecutor(Executor):
    """A pool whose every task is bracketed by speed probes in its worker.

    Cancelling a returned future does not cancel the task; the benchmark
    sets no deadlines, so the service never cancels one.
    """

    def __init__(self, inner: Executor):
        self.inner = inner
        self.probes: List[float] = []

    def submit(self, fn, /, *args, **kwargs):
        outer: Future = Future()
        outer.set_running_or_notify_cancel()

        def settle(done: Future) -> None:
            try:
                result, before, after = done.result()
            except BaseException as exc:  # handed to the caller's future
                outer.set_exception(exc)
                return
            self.probes.extend((before, after))
            outer.set_result(result)

        self.inner.submit(_probed_call, fn, *args, **kwargs).add_done_callback(settle)
        return outer

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.inner.shutdown(wait=wait, cancel_futures=cancel_futures)


# ----------------------------------------------------------------------
# service_mixed: Zipf-skewed requests through CompileService over a disk cache
# ----------------------------------------------------------------------
class ServiceMixed:
    name = "service_mixed"
    #: At least 3 passes of the ~376-request stream: p99 leaves 11 of the
    #: 1128 samples beyond it.
    tail_percentile = 99
    min_passes = 3
    molecules = ("LiH", "BeH2")
    term_counts = tuple(range(4, 13))
    config_seeds = (0, 1, 2)
    n_requests = 400
    zipf_exponent = 1.1
    #: Fixed popularity ranking of the request keys; the run's seed only
    #: shuffles arrival order, so every pass and seed touches the same keys.
    ranking_seed = 20230303
    memory_entries = 32
    n_clients = 2
    n_workers = 2
    n_main_probes = 5

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir / f"service-{seed}"
        self.requests: Dict[Tuple[str, int, int], CompileRequest] = {}
        self.stream: List[Tuple[str, int, int, str]] = []
        self.pool: Optional[ProbedExecutor] = None
        self._passes = 0

    def prepare(self) -> None:
        ranked = {molecule: ansatz_terms(molecule) for molecule in self.molecules}
        self.requests = {
            (molecule, n, config_seed): CompileRequest(
                terms=ranked[molecule][1][:n],
                n_qubits=ranked[molecule][0],
                config=CompilerConfig(seed=config_seed),
            )
            for molecule in self.molecules
            for n in self.term_counts
            for config_seed in self.config_seeds
        }
        keys = [key + (backend,) for key in self.requests for backend in BACKENDS]
        random.Random(self.ranking_seed).shuffle(keys)
        weights = [1.0 / (rank + 1) ** self.zipf_exponent for rank in range(len(keys))]
        scale = self.n_requests / sum(weights)
        self.stream = [
            key for key, weight in zip(keys, weights) for _ in range(round(weight * scale))
        ]

    def warm(self) -> None:
        request = next(iter(self.requests.values()))
        small = CompileRequest(
            terms=request.terms[:2], n_qubits=request.n_qubits, config=request.config
        )
        compile_batch([small], backends=BACKENDS, cache=CompileCache())
        # fork, not spawn: workers inherit the imported, warmed package, and
        # a fork-context pool starts no resource-tracker process that would
        # outlive the run.  Both workers start on the first submit.
        self.pool = ProbedExecutor(
            ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=multiprocessing.get_context("fork")
            )
        )
        list(self.pool.inner.map(abs, range(self.n_workers)))

    def run_pass(self) -> PassResult:
        directory = self.work_dir / f"pass-{self._passes}"
        stream = pass_order(self.seed, self._passes, self.stream)
        self._passes += 1
        try:
            return asyncio.run(self._serve(directory, stream))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    async def _serve(self, directory: Path, order: List) -> PassResult:
        disk = PersistentCompileCache(directory)
        service = CompileService(
            disk_cache=disk,
            memory_cache=CompileCache(max_entries=self.memory_entries),
            executor=self.pool,
            n_workers=self.n_workers,
        )
        stream = iter(order)
        jobs: List[Job] = []
        self.pool.probes.clear()
        # Cache hits run in this process, computes in the pool workers, so
        # each gets the speed of where it ran: probes here at both ends of
        # the pass (workers idle), and the probes bracketing every compute.
        main_probes = [probe() for _ in range(self.n_main_probes)]
        async with service:
            start = time.perf_counter()
            await asyncio.gather(
                *(self._client(service, stream, jobs) for _ in range(self.n_clients))
            )
            wall = time.perf_counter() - start
        main_probes += [probe() for _ in range(self.n_main_probes)]
        main_speed = speed_factor(*main_probes)
        worker_speed = speed_factor(*self.pool.probes)
        for job in jobs:
            job.speed = main_speed if job.tier in ("memory", "disk") else worker_speed
        metrics = service.metrics
        stats = {f"service.tier.{tier}": n for tier, n in metrics.tier_counts.items()}
        stats["service.wait_ms_p50"] = 1e3 * (metrics.wait.percentile(50) or 0.0)
        stats["service.compute_ms_p50"] = 1e3 * (metrics.compute.percentile(50) or 0.0)
        stats["service.memory.evictions"] = service.memory_cache.evictions
        stats["service.disk.entries"] = len(disk)
        return PassResult(
            wall_s=wall, adjusted_wall_s=wall * worker_speed, jobs=jobs, stats=stats
        )

    async def _client(
        self, service: CompileService, stream: Iterator, jobs: List[Job]
    ) -> None:
        """One closed-loop client: the next request goes out when one returns."""
        for key in stream:
            request, backend = self.requests[key[:3]], key[3]
            job = Job(key=key, request=request)
            start = time.perf_counter()
            try:
                with span("bench.service.compile", backend=backend):
                    job_id = await service.submit(request, backend)
                    job.results[backend] = await service.result(job_id)
                job.tier = service.status(job_id).tier
            except Exception:  # counted as a failed job; the client goes on
                job.error = traceback.format_exc(limit=4)
            job.latency_s = time.perf_counter() - start
            jobs.append(job)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (GridCold, SweepWarm, ServiceMixed)}
