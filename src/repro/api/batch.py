"""Batch compilation: memoized, optionally parallel, multi-backend.

:func:`compile_batch` runs many :class:`~repro.api.backend.CompileRequest`
jobs across one or more backends in a single call.  Identical jobs — same
terms fingerprint, backend and the part of the config that backend reads
(:meth:`~repro.api.store.CompileCache.key`) — are compiled once and served
from a :class:`~repro.api.store.CompileCache`, which can be kept across
calls so warm batches skip recompilation entirely.  With ``workers > 1`` the
outstanding jobs fan out over a process pool (every flow is CPU-bound pure
Python, so threads would not help).

>>> from repro.api import CompileRequest, CompileCache, compile_batch
>>> cache = CompileCache()
>>> batch = compile_batch(requests, backends=("baseline", "advanced"), cache=cache)
>>> batch.results[0]["advanced"].cnot_count
>>> compile_batch(requests, backends="advanced", cache=cache).cache_hits  # warm
len(requests)

Every job runs through :func:`run_job`, the one worker entry point that
:class:`repro.service.CompileService` uses too: it compiles on the job's
backend and, when that fails with a :data:`FALLBACK_RETRYABLE` error, walks
the job's fallback chain.

Batches are *resumable* and *degradable*:

* ``checkpoint_dir=`` journals every completed job in a
  :class:`~repro.api.store.PersistentCompileCache` on that directory; a
  batch killed mid-run (crash, OOM, SIGKILL) resumes by recompiling only the
  missing jobs and serves the journaled results verbatim (bit-identical to
  an uninterrupted run).
* ``fallback=("gt", "jw")`` retries a job whose backend failed with a typed
  stage failure (or an I/O / worker-pool error) on the next backend in the
  chain, recording the substitution in the report.
* ``on_error="collect"`` isolates per-job failures into
  ``BatchResult.report.failed`` instead of aborting the whole batch
  (``"raise"``, the historical default, propagates the first unrecovered
  failure — completed jobs are still journaled first).

Worker processes resolve backends by name from their own registry.  The four
default backends are always available there; custom backends reach workers
only on platforms whose process start method is ``fork`` (Linux), because a
``spawn``-ed worker imports just :mod:`repro.api` and never the module that
registered the custom backend.  :func:`compile_batch` refuses that
combination eagerly (see :func:`_check_worker_backends`) instead of letting
workers fail with an opaque ``KeyError`` mid-batch.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    as_completed,
)
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro import faults
from repro.api.backend import (
    CompileRequest,
    CompileResult,
    canonical_backend_name,
    get_backend,
)
from repro.api.backends import DEFAULT_BACKEND_NAMES
from repro.api.store import (
    CacheKey,
    CompileCache,
    PersistentCompileCache,
    cache_key_digest,
)
from repro.core.pipeline import StageFailure
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer, tracing


class WorkerCrashed(RuntimeError):
    """A process-pool worker died mid-compile (e.g. OOM-killed).

    :class:`~repro.service.CompileService` raises it in place of the
    executor's ``BrokenProcessPool`` so the failure is (a) scoped to the job
    that hit it rather than poisoning the service and (b) classified as
    retryable — the pool is replenished and the retry (or a dedup joiner
    awaiting the same future) gets the recomputed result.
    """


#: Failure classes that send a job down its backend fallback chain: typed
#: pipeline stage failures, I/O errors (incl. injected faults), and died
#: pool workers.  Input-validation errors (ValueError/TypeError) are
#: deliberately excluded — a request every backend would reject should
#: fail, not burn the chain.
FALLBACK_RETRYABLE: Tuple[type, ...] = (
    StageFailure,
    OSError,
    BrokenExecutor,
    WorkerCrashed,
)

#: Batch-robustness traffic, in the global obs registry.
_BATCH_FALLBACKS = get_metrics().counter("batch.fallbacks")
_BATCH_SKIPPED = get_metrics().counter("batch.checkpoint.skipped")
_BATCH_CHECKPOINT_ERRORS = get_metrics().counter("batch.checkpoint.errors")
_BATCH_FAILURES = get_metrics().counter("batch.failures")

Attempts = Tuple[Tuple[str, str], ...]


class BackendResults(Dict[str, CompileResult]):
    """One request's results, keyed by canonical backend name.

    Lookup also accepts registered aliases, so ``row["jw"]`` and
    ``row["jordan-wigner"]`` return the same result.
    """

    def __missing__(self, key: str) -> CompileResult:
        canonical = canonical_backend_name(key)
        if canonical == key:
            raise KeyError(key)
        return self[canonical]

    def __contains__(self, key: object) -> bool:
        if super().__contains__(key):
            return True
        try:
            return super().__contains__(canonical_backend_name(str(key)))
        except KeyError:
            return False

    def get(self, key: str, default=None):
        try:
            return self[key]
        except KeyError:
            return default


@dataclass(frozen=True)
class JobFailure:
    """One batch job that failed after exhausting its fallback chain.

    ``attempts`` lists every ``(backend, error repr)`` tried, the job's
    primary backend first; ``error`` repeats the primary backend's error.
    """

    digest: str
    backend: str
    error: str
    attempts: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FallbackRecord:
    """One batch job completed by a fallback backend after failures.

    ``failed`` names the backends that raised, in the order tried (the job's
    primary backend first); ``succeeded`` is the backend whose result the
    job's row carries.
    """

    digest: str
    failed: Tuple[str, ...]
    succeeded: str


@dataclass
class BatchReport:
    """Per-job accounting of one :func:`compile_batch` run.

    All jobs are identified by their :func:`cache_key_digest`.  ``compiled``
    are the jobs executed this run (including fallback completions);
    ``skipped`` were served from the checkpoint journal of a previous run;
    ``failed`` exhausted every backend (only populated under
    ``on_error="collect"``); ``fallbacks`` details each backend
    substitution.  Jobs served by the in-memory cache appear in none of
    these — they cost nothing and are visible in ``BatchResult.cache_hits``.
    """

    compiled: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    failed: List[JobFailure] = field(default_factory=list)
    fallbacks: List[FallbackRecord] = field(default_factory=list)

    @property
    def failed_digests(self) -> Tuple[str, ...]:
        return tuple(failure.digest for failure in self.failed)


@dataclass
class BatchResult:
    """Outcome of one :func:`compile_batch` call.

    ``results`` holds one mapping per input request, keyed by canonical
    backend name (alias lookup works too), in request order.  A job that
    failed under ``on_error="collect"`` is *absent* from its row (lookup
    raises ``KeyError``, ``row.get(name)`` returns ``None``); consult
    ``report.failed`` for the error.  A job completed by a fallback backend
    carries that backend's result (``result.backend`` names it) under the
    requested backend's row key.
    """

    results: List[BackendResults]
    backends: Tuple[str, ...]
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    report: BatchReport = field(default_factory=BatchReport)

    def cnot_counts(self, backend: str) -> List[int]:
        """The per-request CNOT counts of one backend, in request order."""
        canonical = canonical_backend_name(backend)
        return [row[canonical].cnot_count for row in self.results]


class JobOutcome(NamedTuple):
    """A job :func:`run_job` completed, and how."""

    result: CompileResult
    #: The backend whose compile produced ``result``.
    backend: str
    #: ``(backend, error repr)`` of every backend that failed first, in order.
    attempts: Attempts
    #: The worker's exported span forest (only with ``collect_spans``).
    spans: Optional[list] = None


def backend_chain(backend: str, fallback: Sequence[str]) -> Tuple[str, ...]:
    """A job's backend chain: its own backend, then the other fallbacks."""
    return (backend,) + tuple(name for name in fallback if name != backend)


def _compile_on(backend: str, request: CompileRequest) -> CompileResult:
    # The two repro.faults sites are no-ops unless a fault plan is active:
    # ``pool.worker`` is where a ``kill`` rule takes down the hosting pool
    # process, ``compute`` injects transient compile failures/delays.
    faults.fire("pool.worker", backend=backend)
    faults.fire("compute", backend=backend)
    return get_backend(backend).compile(request)


def run_job(
    backends: Sequence[str],
    request: CompileRequest,
    failed: Attempts = (),
    collect_spans: bool = False,
) -> JobOutcome:
    """The worker entry point of every compile job, batch and service alike.

    Compiles ``request`` on ``backends[0]``; when that raises a
    :data:`FALLBACK_RETRYABLE` error, tries the remaining (fallback)
    backends in order until one succeeds, each in its own ``job.fallback``
    span.  A fallback's failure of any kind moves on to the next.  When
    every backend fails, the first error is re-raised with an ``attempts``
    attribute listing every ``(backend, error repr)`` tried.

    ``failed`` holds the attempts of a pool worker that died mid-chain: the
    caller re-runs the rest of the chain with them, so every backend here
    counts as a fallback, and the caller raises its own primary error if
    this run fails too.  ``collect_spans`` runs the job under a fresh tracer
    and returns its exported forest in ``JobOutcome.spans`` — executor
    workers do not share the caller's tracer, so the caller adopts it.
    Pool workers pick a fault plan up from the ``REPRO_FAULTS`` environment
    variable (or fork inheritance on Linux).
    """
    if collect_spans:
        with tracing() as tracer:
            return run_job(backends, request, failed)._replace(spans=tracer.export())
    tracer = get_tracer()
    attempts = list(failed)
    first_error = None
    for name in backends:
        span = (
            tracer.span("job.fallback", backend=name, replaces=attempts[0][0])
            if attempts
            else nullcontext()
        )
        try:
            with span:
                result = _compile_on(name, request)
        except Exception as exc:
            attempts.append((name, repr(exc)))
            if first_error is None:
                first_error = exc
                if not failed and not isinstance(exc, FALLBACK_RETRYABLE):
                    break
            continue
        return JobOutcome(result, name, tuple(attempts))
    first_error.attempts = tuple(attempts)
    raise first_error


def _check_worker_backends(canonical_names: Sequence[str]) -> None:
    """Refuse custom backends on process pools whose start method isn't fork.

    A ``spawn``-ed (or ``forkserver``-ed) worker imports :mod:`repro.api`
    fresh and never runs the module that registered a custom backend, so the
    worker's registry lookup would fail with a bare ``KeyError`` deep inside
    the pool.  Raise eagerly, before any job runs, with the offending names.
    """
    custom = [name for name in canonical_names if name not in DEFAULT_BACKEND_NAMES]
    start_method = multiprocessing.get_start_method()
    if custom and start_method != "fork":
        raise RuntimeError(
            f"custom backend(s) {custom} cannot reach worker processes under "
            f"the {start_method!r} start method: spawned workers import only "
            "repro.api and never the module that registered them. "
            "Run with workers=1, or use only the default backends "
            f"{sorted(DEFAULT_BACKEND_NAMES)} in parallel batches."
        )


def compile_batch(
    requests: Sequence[CompileRequest],
    backends: Union[str, Sequence[str]] = "advanced",
    workers: int = 1,
    cache: Optional[CompileCache] = None,
    executor: Optional[Executor] = None,
    checkpoint_dir=None,
    fallback: Union[str, Sequence[str]] = (),
    on_error: str = "raise",
) -> BatchResult:
    """Compile every request with every backend, memoized and deduplicated.

    Parameters
    ----------
    requests:
        The compilation jobs; each carries its own terms and config.
    backends:
        One backend name/alias or a sequence of them; every request is
        compiled by each.
    workers:
        Process-pool width for the jobs the cache cannot serve; ``1`` (the
        default) stays in-process.
    cache:
        A :class:`CompileCache` reused across calls.  Omitted, a private
        cache still deduplicates identical jobs inside this batch.
    executor:
        A caller-owned :class:`concurrent.futures.Executor` to run the jobs
        on instead of a per-call pool, so many small batches (e.g. one per
        Table-I row) amortize one pool's startup cost.  Overrides ``workers``;
        the caller shuts it down.
    checkpoint_dir:
        Directory of a crash-safe journal, a
        :class:`~repro.api.store.PersistentCompileCache`.  Every completed
        job is recorded the moment it finishes; a rerun over the same
        directory serves journaled jobs verbatim (``report.skipped``) and
        recompiles only the rest, making a batch killed mid-run resumable
        with bit-identical results.
    fallback:
        Backend name(s) to retry a job on when its backend fails with a
        :data:`FALLBACK_RETRYABLE` error (typed stage failure, I/O error,
        broken worker pool).  Tried in order by :func:`run_job`; the first
        success fills the job's row (under the originally requested
        backend's key) and is recorded in ``report.fallbacks``.
    on_error:
        ``"raise"`` (default): the first failure that survives the fallback
        chain propagates — jobs already completed are journaled and cached
        first, and any pool is shut down.  ``"collect"``: per-job isolation —
        the batch finishes, failed jobs land in ``report.failed`` and are
        absent from their result rows.
    """
    requests = list(requests)
    if isinstance(backends, str):
        backends = (backends,)
    canonical_names = tuple(canonical_backend_name(name) for name in backends)
    if len(set(canonical_names)) != len(canonical_names):
        raise ValueError(f"duplicate backends requested: {canonical_names}")
    if isinstance(fallback, str):
        fallback = (fallback,)
    fallback_chain = tuple(canonical_backend_name(name) for name in fallback)
    if on_error not in ("raise", "collect"):
        raise ValueError("on_error must be 'raise' or 'collect'")
    if workers > 1 and executor is None:
        _check_worker_backends(canonical_names + fallback_chain)
    cache = cache if cache is not None else CompileCache()
    journal = None
    if checkpoint_dir is not None:
        journal = PersistentCompileCache(checkpoint_dir)

    start = time.perf_counter()
    hits_before, misses_before = cache.hits, cache.misses
    report = BatchReport()
    #: Every key's final result, whatever produced it (cache, journal,
    #: compile, fallback); rows are assembled from here, never from the
    #: shared cache, which only holds honest per-backend entries.
    resolved: Dict[CacheKey, CompileResult] = {}

    # One lookup per (request, backend) pair; identical pairs collapse onto
    # the same key, so each distinct job is compiled at most once.  A pair
    # counts as a miss only when it is the one that triggers a compilation;
    # duplicates inside the batch are hits, they cost nothing.
    keys: List[List[CacheKey]] = [
        [CompileCache.key(request, name) for name in canonical_names]
        for request in requests
    ]
    chains = {name: backend_chain(name, fallback_chain) for name in canonical_names}
    pending: Dict[CacheKey, Tuple[Tuple[str, ...], CompileRequest]] = {}
    for request, request_keys in zip(requests, keys):
        for key, name in zip(request_keys, canonical_names):
            if key in pending or key in resolved:
                cache.hits += 1  # deduplicated within this batch, costs nothing
                continue
            cached = cache.get(key)  # get() counts the hit or miss
            if cached is not None:
                resolved[key] = cached
                continue
            journaled = journal.peek(key) if journal is not None else None
            if journaled is not None:
                # A previous (possibly killed) run finished this job; serve
                # its result verbatim so resume is bit-identical.
                resolved[key] = journaled
                report.skipped.append(cache_key_digest(key))
                _BATCH_SKIPPED.inc()
                if journaled.backend == name:
                    cache.put(key, journaled)
                continue
            pending[key] = (chains[name], request)

    jobs = list(pending.items())
    tracer = get_tracer()

    def settle(key: CacheKey, chain, request, run: Callable[[], JobOutcome]) -> None:
        """Run one job via ``run``; cache, journal and report its outcome."""
        digest = cache_key_digest(key)
        error = None
        try:
            outcome = run()
        except BrokenExecutor as crash:
            # The pool worker died and took the job's chain with it; the rest
            # of the chain runs in-process, never on the broken pool.
            error, attempts = crash, ((chain[0], repr(crash)),)
            if len(chain) > 1:
                try:
                    outcome = run_job(chain[1:], request, attempts)
                    error = None
                except Exception as rest_error:
                    attempts = rest_error.attempts
        except Exception as exc:
            error = exc
            attempts = getattr(exc, "attempts", ((chain[0], repr(exc)),))
        if error is not None:
            _BATCH_FAILURES.inc()
            if on_error == "raise":
                raise error
            report.failed.append(
                JobFailure(digest, chain[0], repr(error), tuple(attempts))
            )
            return
        tracer.adopt(outcome.spans)
        resolved[key] = outcome.result
        # The shared cache stays honest: a result is cached under the key of
        # the backend that produced it, never under a failed primary's.
        if outcome.backend == chain[0]:
            cache.put(key, outcome.result)
        else:
            cache.put(CompileCache.key(request, outcome.backend), outcome.result)
        # The journal is a batch artifact ("this job is done"), so it records
        # under the job's primary key — resume must serve this same result,
        # not retry the failed backend.
        if journal is not None:
            try:
                faults.fire("checkpoint.write", digest=digest)
                journal.put(key, outcome.result)
            except OSError:
                # The job succeeded: a lost record (full disk, injected
                # fault) only costs a recompile on resume, so degrade.
                _BATCH_CHECKPOINT_ERRORS.inc()
        report.compiled.append(digest)
        if outcome.attempts:
            report.fallbacks.append(
                FallbackRecord(
                    digest=digest,
                    failed=tuple(name for name, _ in outcome.attempts),
                    succeeded=outcome.backend,
                )
            )
            _BATCH_FALLBACKS.inc()

    def run_on(pool: Executor) -> None:
        # Outcomes are settled as each future resolves, so a batch killed
        # mid-run keeps (journaled) every job finished before the kill.  A
        # broken pool fails only the unfinished futures.
        futures = {
            pool.submit(run_job, chain, request, (), tracer.enabled): (key, chain, request)
            for key, (chain, request) in jobs
        }
        for future in as_completed(futures):
            settle(*futures[future], future.result)

    with tracer.span(
        "batch.compile_batch",
        n_requests=len(requests),
        n_jobs=len(jobs),
        backends=",".join(canonical_names),
    ) as batch_span:
        if executor is not None and len(jobs) > 1:
            run_on(executor)
        elif workers > 1 and len(jobs) > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                run_on(pool)
            finally:
                # Always executed — job failure, on_error="raise" propagation,
                # KeyboardInterrupt: pending jobs are cancelled, running ones
                # joined, and no worker process is leaked.
                pool.shutdown(wait=True, cancel_futures=True)
        else:
            # In-process: spans from each backend nest under this one naturally.
            for key, (chain, request) in jobs:
                settle(key, chain, request, lambda: run_job(chain, request))
        if report.skipped:
            batch_span.set_attribute("n_skipped", len(report.skipped))
        if report.fallbacks:
            batch_span.set_attribute("n_fallbacks", len(report.fallbacks))
        if report.failed:
            batch_span.set_attribute("n_failed", len(report.failed))

    results: List[BackendResults] = [
        BackendResults(
            (name, resolved[key])
            for key, name in zip(request_keys, canonical_names)
            if key in resolved
        )
        for request_keys in keys
    ]

    return BatchResult(
        results=results,
        backends=canonical_names,
        cache_hits=cache.hits - hits_before,
        cache_misses=cache.misses - misses_before,
        wall_time_s=time.perf_counter() - start,
        report=report,
    )
