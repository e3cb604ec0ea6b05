"""Asyncio compile-as-a-service front end over the batch compilation layer.

:class:`CompileService` turns the per-call :func:`repro.api.compile_batch`
machinery into a long-lived service with a job API:

* ``submit(request, backend, priority, deadline_s)`` → job id (backpressure:
  a bounded priority queue; a full queue rejects with
  :class:`ServiceOverloadedError` carrying a computed ``retry_after_s`` hint
  instead of buffering unboundedly);
* ``status(job_id)`` → :class:`JobStatus` snapshot;
* ``result(job_id)`` → awaits and returns the :class:`~repro.api.CompileResult`;
* ``cancel(job_id)`` → cancellation of queued *and* in-flight submitters.

Identical in-flight requests — same memoization key as the in-memory
:class:`~repro.api.CompileCache` — are **deduplicated**: N submitters share
one compilation and N-1 of them are served from the ``dedup`` tier, while
each keeps its *own* result future so per-submitter deadlines, cancellation
and timeouts compose with dedup.  Worker tasks serve each job through the
layered lookup path

    memory (CompileCache) → disk (PersistentCompileCache) → compute

where the compute step runs the batch layer's worker entry point
(:func:`repro.api.batch.run_job`) on a caller-supplied executor — pass a
``ProcessPoolExecutor`` (or better, ``executor_factory=`` so the service can
replenish a crashed pool) for real parallelism, or leave the default to run
compilations on the event loop's thread pool.

The resilience layer is built from the :mod:`repro.service.resilience`
primitives:

* **Deadlines** — ``submit(..., deadline_s=...)`` arms a watchdog that fails
  the submitter's future with :class:`JobTimedOut` the moment the deadline
  passes, whether the job is still queued or already computing.  A shared
  (deduplicated) compilation keeps running for the submitters that still
  have time.
* **Retries** — transient compute failures (classified by
  :class:`RetryPolicy`; worker crashes and I/O errors by default) are
  retried with exponential backoff and deterministic jitter, bounded by the
  per-job attempt cap and the service-wide retry budget, all surfaced in
  :class:`ServiceMetrics` and traced as ``service.retry`` spans.
* **Worker-crash recovery** — a died process-pool worker surfaces as
  :class:`WorkerCrashed` on the job that hit it (not a poisoned service);
  when the service owns its pool (``executor_factory``) the broken pool is
  replaced before the retry, and dedup joiners receive the retried result.
* **Disk circuit breaker** — consecutive disk-tier faults (I/O errors,
  corrupt shards) open a :class:`CircuitBreaker`; while open, lookups skip
  straight to memory → compute (graceful degradation), and half-open probes
  re-admit the tier once it heals.  Transitions are counted, gauged and
  emitted as ``service.breaker`` spans.
* **Backend fallback chains** — ``CompileService(fallback=("gt", "jw"))``
  hands :func:`~repro.api.batch.run_job` the job's whole backend chain, so a
  backend failing with a :data:`~repro.api.FALLBACK_RETRYABLE` error (typed
  stage failure, I/O error) falls back to the next one inside the same
  worker round trip, in a ``job.fallback`` span.  A worker crash takes the
  chain with it; once the retry policy is spent on it, the rest of the chain
  runs once more on the replenished executor.  The substitute result is
  cached under *its own* backend's key (no cache poisoning), served to every
  submitter and counted in ``service.fallbacks``.
* **Graceful shutdown** — ``shutdown(drain=True, timeout_s=...)`` stops
  accepting work and finishes what is queued/in flight before closing,
  instead of cancelling it.

Every tier transition and resilience event is counted in the registry of
:class:`~repro.service.metrics.ServiceMetrics`; the chaos suite
(``tests/service/test_chaos.py``) and ``benchmarks/bench_chaos.py`` drive
the whole layer under :mod:`repro.faults` injection.

Usage::

    async with CompileService(disk_cache=PersistentCompileCache(dir)) as svc:
        job = await svc.submit(request, backend="advanced", deadline_s=30.0)
        result = await svc.result(job)
        svc.metrics.snapshot()
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import BrokenExecutor, Executor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.api.backend import CompileRequest, CompileResult, canonical_backend_name
from repro.api.batch import WorkerCrashed, backend_chain, run_job
from repro.api.store import (
    CacheKey,
    CompileCache,
    PersistentCompileCache,
    cache_key_digest,
)
from repro.obs.metrics import Counter
from repro.obs.tracer import get_tracer
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    CircuitBreaker,
    JobTimedOut,
    RetryPolicy,
)


class ServiceOverloadedError(RuntimeError):
    """The job queue is full; the submitter should back off and retry.

    ``retry_after_s`` is the service's own estimate of when a slot should
    free up — current queue depth times the recent median compute time,
    spread over the worker count — so clients can back off proportionally
    to the actual overload instead of guessing.
    """

    def __init__(self, message: str, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceDrainingError(RuntimeError):
    """The service is shutting down and no longer accepts submissions."""


class UnknownJobError(KeyError):
    """The job id was never issued by this service instance."""


class JobCancelledError(RuntimeError):
    """The awaited job was cancelled before producing a result."""


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class JobStatus:
    """Point-in-time snapshot of one submitted job."""

    job_id: str
    state: JobState
    backend: str
    priority: int
    tier: Optional[str]
    error: Optional[str]
    deduplicated: bool
    total_s: Optional[float]


#: Sentinel: the compute was abandoned because every submitter gave up.
_ABANDONED = object()


class _Job:
    """Internal per-submit record; deduplicated submits share the *work*.

    Every submitter owns its own result future (so deadlines, cancellation
    and timeouts are per-submitter), while ``link`` ties joiners to the
    primary job that actually occupies a queue slot and computes.
    """

    __slots__ = (
        "job_id", "request", "backend", "key", "priority", "future",
        "deadline_s", "deadline_handle", "submitted_at", "started_at",
        "finished_at", "tier", "error", "cancelled", "link", "joiners",
        "exec_future", "abandon_requested",
    )

    def __init__(self, job_id, request, backend, key, priority, future,
                 deadline_s=None, link=None):
        self.job_id = job_id
        self.request = request
        self.backend = backend
        self.key = key
        self.priority = priority
        self.future = future
        self.deadline_s: Optional[float] = deadline_s
        self.deadline_handle: Optional[asyncio.TimerHandle] = None
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.tier: Optional[str] = None
        self.error: Optional[str] = None
        self.cancelled = False
        self.link: Optional[_Job] = link  # primary job, for deduplicated submits
        self.joiners: List[_Job] = []
        self.exec_future: Optional[asyncio.Future] = None
        self.abandon_requested = False

    @property
    def primary(self) -> "_Job":
        return self.link if self.link is not None else self

    @property
    def group(self) -> List["_Job"]:
        """Every submitter sharing this compilation (primary first)."""
        primary = self.primary
        return [primary] + primary.joiners

    @property
    def abandoned(self) -> bool:
        """No submitter of this compilation is still waiting for it."""
        return all(job.future.done() for job in self.group)

    @property
    def state(self) -> JobState:
        if self.cancelled or self.future.cancelled():
            return JobState.CANCELLED
        if self.future.done():
            exc = self.future.exception()
            if exc is None:
                return JobState.DONE
            if isinstance(exc, JobTimedOut):
                return JobState.TIMED_OUT
            return JobState.FAILED
        if self.primary.started_at is not None:
            return JobState.RUNNING
        return JobState.QUEUED

    def status(self) -> JobStatus:
        finished = self.finished_at
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            backend=self.backend,
            priority=self.priority,
            tier=self.tier,
            error=self.error if self.error is not None else self.primary.error,
            deduplicated=self.link is not None,
            total_s=None if finished is None else finished - self.submitted_at,
        )


class CompileService:
    """Async compile service: bounded priority queue, dedup, tiered caching,
    deadlines, retries, worker-crash recovery and disk circuit breaking.

    Parameters
    ----------
    disk_cache:
        Optional :class:`PersistentCompileCache` shared across processes.
    memory_cache:
        In-memory :class:`~repro.api.CompileCache`; a fresh private one is
        created unless ``use_memory_cache=False`` disables the tier.
    executor:
        Where compilations run.  ``None`` uses the event loop's default
        thread pool; pass a ``ProcessPoolExecutor`` for CPU parallelism
        (the caller owns and shuts it down — and eats crashed pools).
    executor_factory:
        Alternative to ``executor``: a zero-argument callable the service
        uses to create (and own) its executor, and to **replenish** it when
        a pool worker dies — the only mode in which :class:`WorkerCrashed`
        recovery can replace the broken pool.  Mutually exclusive with
        ``executor``.
    n_workers:
        Concurrent worker tasks draining the queue.
    max_queue:
        Queue bound; a full queue makes :meth:`submit` raise
        :class:`ServiceOverloadedError` (the backpressure signal).
    retry_policy:
        :class:`RetryPolicy` for transient compute failures; defaults to
        3 attempts of exponential backoff.  ``RetryPolicy(max_attempts=1)``
        disables retries.
    breaker:
        :class:`CircuitBreaker` guarding the disk tier.  Defaults to a
        5-consecutive-failure breaker whenever ``disk_cache`` is present.
    default_deadline_s:
        Deadline applied to submits that don't pass their own (``None`` =
        no deadline).
    fallback:
        Backend name(s) to retry a job on when its own backend fails with a
        :data:`~repro.api.FALLBACK_RETRYABLE` error (typed pipeline
        :class:`~repro.core.StageFailure`, I/O error, worker crash).  Tried
        in order; a success serves every submitter and is cached under the
        fallback backend's own key.

    Lower ``priority`` values run earlier; ties are FIFO.
    """

    def __init__(
        self,
        disk_cache: Optional[PersistentCompileCache] = None,
        memory_cache: Optional[CompileCache] = None,
        executor: Optional[Executor] = None,
        executor_factory: Optional[Callable[[], Executor]] = None,
        n_workers: int = 2,
        max_queue: int = 64,
        use_memory_cache: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        default_deadline_s: Optional[float] = None,
        fallback: Union[str, Sequence[str]] = (),
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if executor is not None and executor_factory is not None:
            raise ValueError("pass either executor or executor_factory, not both")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be None or positive")
        if memory_cache is None and use_memory_cache:
            memory_cache = CompileCache()
        self.disk_cache = disk_cache
        self.memory_cache = memory_cache if use_memory_cache else None
        self.metrics = ServiceMetrics()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = breaker
        if self.breaker is None and disk_cache is not None:
            self.breaker = CircuitBreaker()
        if self.breaker is not None:
            self._chain_breaker_callback(self.breaker)
            self.metrics.registry.gauge("service.breaker.state").set(self.breaker.state_code)
        self.default_deadline_s = default_deadline_s
        if isinstance(fallback, str):
            fallback = (fallback,)
        self.fallback_chain: Tuple[str, ...] = tuple(
            canonical_backend_name(name) for name in fallback
        )
        self._executor = executor
        self._executor_factory = executor_factory
        self._n_workers = n_workers
        self._max_queue = max_queue
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._workers: List[asyncio.Task] = []
        self._jobs: Dict[str, _Job] = {}
        self._inflight: Dict[CacheKey, _Job] = {}
        self._seq = itertools.count()
        self._order = itertools.count()  # FIFO tiebreak inside one priority
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CompileService":
        if self._queue is not None:
            raise RuntimeError("service already started")
        self._draining = False
        if self._executor_factory is not None and self._executor is None:
            self._executor = self._executor_factory()
        self._queue = asyncio.PriorityQueue(maxsize=self._max_queue)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"compile-worker-{i}")
            for i in range(self._n_workers)
        ]
        return self

    async def close(self) -> None:
        """Stop the workers; unfinished job futures are cancelled."""
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._queue = None
        self._draining = False
        for job in self._jobs.values():
            self._cancel_deadline(job)
            if not job.future.done():
                job.future.cancel()
        self._inflight.clear()
        if self._executor_factory is not None and self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def shutdown(self, drain: bool = True, timeout_s: Optional[float] = None) -> None:
        """Stop accepting work; optionally finish what's already in.

        With ``drain=True`` (the default) the service refuses new submits
        (:class:`ServiceDrainingError`), waits up to ``timeout_s`` seconds
        (``None`` = forever) for every queued and in-flight job to complete,
        then closes.  Work that doesn't finish inside the window — and
        everything, when ``drain=False`` — is cancelled by :meth:`close`.
        """
        self._require_started()
        self._draining = True
        if drain:
            try:
                await asyncio.wait_for(self._queue.join(), timeout_s)
            except asyncio.TimeoutError:
                pass  # the drain window expired; close() cancels the rest
        await self.close()

    async def __aenter__(self) -> "CompileService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def join(self) -> None:
        """Wait until every queued job has been processed."""
        self._require_started()
        await self._queue.join()

    # ------------------------------------------------------------------
    # Job API
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: CompileRequest,
        backend: str = "advanced",
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> str:
        """Enqueue one compilation; returns the job id.

        An identical in-flight request (same memoization key) is joined, not
        re-queued: the new job shares the existing compilation without a
        queue slot, while keeping its own future (and deadline).  A full
        queue raises :class:`ServiceOverloadedError` with a
        ``retry_after_s`` hint and counts a rejection.  ``deadline_s``
        (falling back to the service's ``default_deadline_s``) bounds the
        submit→result time; a missed deadline fails this submitter's future
        with :class:`JobTimedOut` whether the job is queued or in flight.
        """
        self._require_started()
        if self._draining:
            raise ServiceDrainingError(
                "service is draining (shutdown in progress); submission refused"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be None or positive")
        faults.fire("queue")
        canonical = canonical_backend_name(backend)
        key = CompileCache.key(request, canonical)
        job_id = f"job-{next(self._seq)}"
        loop = asyncio.get_running_loop()

        primary = self._inflight.get(key)
        if primary is not None:
            job = _Job(job_id, request, canonical, key, priority,
                       loop.create_future(), deadline_s, link=primary)
            primary.joiners.append(job)
            self._register(job, loop)
            return job_id

        job = _Job(job_id, request, canonical, key, priority,
                   loop.create_future(), deadline_s)
        try:
            self._queue.put_nowait((priority, next(self._order), job))
        except asyncio.QueueFull:
            self._counter("rejections").inc()
            raise ServiceOverloadedError(
                f"compile queue is full ({self._max_queue} jobs); "
                "retry after in-flight work drains",
                retry_after_s=self._retry_after_hint(),
            ) from None
        self._inflight[key] = job
        self._register(job, loop)
        self.metrics.queue.set(self._queue.qsize())
        return job_id

    def _register(self, job: _Job, loop: asyncio.AbstractEventLoop) -> None:
        """Track a new submitter: bookkeeping, warning sink, deadline."""
        self._jobs[job.job_id] = job
        # Mark the future's eventual exception as observed so a never-awaited
        # submitter (cancelled, timed out, abandoned) doesn't trigger the
        # "exception was never retrieved" warning; result() still re-raises.
        job.future.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        self._counter("submitted").inc()
        deadline = job.deadline_s if job.deadline_s is not None else self.default_deadline_s
        if deadline is not None:
            job.deadline_s = deadline
            job.deadline_handle = loop.call_later(deadline, self._expire, job)

    def status(self, job_id: str) -> JobStatus:
        return self._job(job_id).status()

    async def result(self, job_id: str) -> CompileResult:
        """Await and return the job's result; re-raises compile failures."""
        job = self._job(job_id)
        if job.cancelled:
            raise JobCancelledError(job_id)
        try:
            return await asyncio.shield(job.future)
        except asyncio.CancelledError:
            if job.future.cancelled():
                raise JobCancelledError(job_id) from None
            raise  # the awaiting task itself was cancelled

    def cancel(self, job_id: str) -> bool:
        """Cancel one submitter; returns ``False`` only for finished jobs.

        Cancelling one of several deduplicated submitters only detaches that
        submitter; the shared compilation proceeds for the rest.  When the
        *last* waiting submitter cancels (or times out) mid-compute, the
        abandonment is propagated to the executor future where possible —
        queued executor work is cancelled outright, a running compile has
        its result discarded — and counted in ``service.abandonments``.
        """
        job = self._job(job_id)
        if job.cancelled:
            return True
        if job.future.done():
            return False
        job.cancelled = True
        job.finished_at = time.perf_counter()
        self._cancel_deadline(job)
        job.future.cancel()
        self._counter("cancellations").inc()
        self._maybe_abandon(job.primary)
        return True

    async def compile(
        self,
        request: CompileRequest,
        backend: str = "advanced",
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> CompileResult:
        """Submit-and-await convenience for request/response callers."""
        return await self.result(
            await self.submit(request, backend, priority, deadline_s=deadline_s)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Service metrics plus per-tier cache counters, JSON-ready."""
        data = {"metrics": self.metrics.snapshot()}
        if self.retry_policy is not None:
            data["retry_policy"] = {
                "max_attempts": self.retry_policy.max_attempts,
                "budget": self.retry_policy.budget,
                "budget_remaining": self._retry_budget_remaining(),
            }
        if self.breaker is not None:
            data["breaker"] = {
                "state": self.breaker.state,
                "failure_threshold": self.breaker.failure_threshold,
                "reset_timeout_s": self.breaker.reset_timeout_s,
                "consecutive_failures": self.breaker.consecutive_failures,
            }
        if self.memory_cache is not None:
            data["memory_cache"] = {
                "entries": len(self.memory_cache),
                "hits": self.memory_cache.hits,
                "misses": self.memory_cache.misses,
                "evictions": self.memory_cache.evictions,
                "max_entries": self.memory_cache.max_entries,
            }
        if self.disk_cache is not None:
            data["disk_cache"] = {
                "version": self.disk_cache.version,
                "hits": self.disk_cache.hits,
                "misses": self.disk_cache.misses,
                "stale_invalidations": self.disk_cache.stale_invalidations,
                "corrupt_invalidations": self.disk_cache.corrupt_invalidations,
                "io_errors": self.disk_cache.io_errors,
                "evictions": self.disk_cache.evictions,
            }
        return data

    # ------------------------------------------------------------------
    # Deadlines / cancellation plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _cancel_deadline(job: _Job) -> None:
        if job.deadline_handle is not None:
            job.deadline_handle.cancel()
            job.deadline_handle = None

    def _expire(self, job: _Job) -> None:
        """Deadline watchdog: fail this submitter's future with JobTimedOut."""
        job.deadline_handle = None
        if job.future.done():
            return
        exc = JobTimedOut(job.job_id, job.deadline_s)
        job.error = repr(exc)
        job.finished_at = time.perf_counter()
        job.future.set_exception(exc)
        self._counter("timeouts").inc()
        self.metrics.total.record(job.finished_at - job.submitted_at)
        self._maybe_abandon(job.primary)

    def _maybe_abandon(self, primary: _Job) -> None:
        """If nobody is waiting anymore, pull the plug on in-flight compute."""
        if not primary.abandoned:
            return
        exec_future = primary.exec_future
        if exec_future is not None and not exec_future.done():
            primary.abandon_requested = True
            exec_future.cancel()
            self._counter("abandonments").inc()
        # A still-queued group is skipped (and counted) at dequeue time.

    # ------------------------------------------------------------------
    # Worker path
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if self._queue is None:
            raise RuntimeError(
                "service not started; use 'async with CompileService(...)' "
                "or await service.start()"
            )

    def _job(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def _retry_after_hint(self) -> float:
        """Backoff estimate: queue depth × median compute time / workers."""
        depth = self._queue.qsize() if self._queue is not None else self._max_queue
        median_s = self.metrics.compute.percentile(50)
        if median_s is None:
            median_s = 0.1  # no compute samples yet; a token backoff
        return round(max(0.05, (depth + 1) * median_s / self._n_workers), 3)

    def _retry_budget_remaining(self) -> Optional[int]:
        budget = self.retry_policy.budget if self.retry_policy else None
        if budget is None:
            return None
        return max(0, budget - self._counter("retries").value)

    def _counter(self, name: str) -> Counter:
        """The ``service.<name>`` counter of this service's registry."""
        return self.metrics.registry.counter(f"service.{name}")

    # ------------------------------------------------------------------
    # Disk tier behind the circuit breaker
    # ------------------------------------------------------------------
    def _chain_breaker_callback(self, breaker: CircuitBreaker) -> None:
        existing = breaker.on_transition

        def on_transition(old_state: str, new_state: str) -> None:
            self.metrics.registry.gauge("service.breaker.state").set(breaker.state_code)
            if new_state == BREAKER_OPEN:
                self._counter("breaker.opens").inc()
            elif new_state == BREAKER_CLOSED:
                self._counter("breaker.closes").inc()
            # Zero-length marker span: transitions are events, not intervals.
            with get_tracer().span(
                "service.breaker", from_state=old_state, to_state=new_state
            ):
                pass
            if existing is not None:
                existing(old_state, new_state)

        breaker.on_transition = on_transition

    def _disk(self, operation: str, *args):
        """One disk-tier ``get``/``put`` behind the circuit breaker.

        A fault (I/O error, corrupt entry) degrades to ``None`` — a miss, or
        a lost cache write the job survives — and counts against the breaker.
        """
        disk, breaker = self.disk_cache, self.breaker
        if disk is None:
            return None
        if breaker is not None and not breaker.allow():
            self._counter("disk_degraded").inc()
            return None
        before = disk.fault_events
        try:
            result = getattr(disk, operation)(*args)
            ok = disk.fault_events == before
        except OSError:
            result, ok = None, False
        if not ok:
            self._counter("disk_faults").inc()
        if breaker is not None:
            (breaker.record_success if ok else breaker.record_failure)()
        return result

    def _lookup(self, key: CacheKey) -> Tuple[Optional[CompileResult], Optional[str]]:
        """The cache tiers of the lookup path: memory first, then disk."""
        if self.memory_cache is not None:
            result = self.memory_cache.get(key)
            if result is not None:
                return result, "memory"
        result = self._disk("get", key)
        if result is not None:
            return result, "disk"
        return None, None

    # ------------------------------------------------------------------
    # Compute with crash translation and retries
    # ------------------------------------------------------------------
    @staticmethod
    def _task_cancelling() -> bool:
        """Whether the *worker task itself* is being cancelled (shutdown)."""
        task = asyncio.current_task()
        cancelling = getattr(task, "cancelling", None)  # 3.11+
        return bool(cancelling is not None and cancelling())

    def _replenish_executor(self, broken: Optional[Executor]) -> None:
        """Replace a crashed pool when the service owns one (factory mode)."""
        if self._executor_factory is None or self._executor is not broken:
            return  # caller-owned executor, or already replaced by a peer
        self._executor = self._executor_factory()
        if broken is not None:
            broken.shutdown(wait=False)

    async def _run_compute_once(self, job: _Job, compute_start: float, chain, failed=()):
        """One executor round trip of :func:`run_job`, with crash translation."""
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        executor = self._executor
        # Executor workers do not inherit the tracing contextvar; with tracing
        # on, run_job collects their span forest, rebased at compute start.
        exec_future = loop.run_in_executor(
            executor, run_job, chain, job.request, failed, tracer.enabled
        )
        job.exec_future = exec_future
        try:
            outcome = await exec_future
        except BrokenExecutor as exc:
            self._counter("worker_crashes").inc()
            self._replenish_executor(executor)
            raise WorkerCrashed(
                f"executor worker died while compiling job {job.job_id}"
            ) from exc
        finally:
            job.exec_future = None
        tracer.adopt(outcome.spans, at=compute_start)
        return outcome

    async def _compute(self, job: _Job):
        """Run the job's backend chain under the retry policy.

        Returns the :class:`~repro.api.batch.JobOutcome`, the ``_ABANDONED``
        sentinel when every submitter gave up mid-compute, or raises the
        final (non-retryable or exhausted) failure of the job's own backend.
        A died pool worker takes the whole chain with it: once the retry
        policy is spent on such a crash, the rest of the chain runs once more
        on the (replenished) executor.
        """
        tracer = get_tracer()
        policy = self.retry_policy
        token = cache_key_digest(job.key)
        chain = backend_chain(job.backend, self.fallback_chain)
        failed, crash = (), None
        attempt = 0
        while True:
            try:
                with tracer.span("service.compute", attempt=attempt):
                    compute_start = time.perf_counter()
                    outcome = await self._run_compute_once(
                        job, compute_start, chain, failed
                    )
                self.metrics.compute.record(time.perf_counter() - compute_start)
                return outcome
            except asyncio.CancelledError:
                if job.abandon_requested and not self._task_cancelling():
                    return _ABANDONED
                raise
            except Exception as exc:
                if crash is not None:
                    raise crash  # the rest of the chain failed as well
                attempt += 1
                retries = self._counter("retries")
                retryable = policy is not None and policy.is_retryable(exc)
                budget_left = policy is not None and (
                    policy.budget is None or retries.value < policy.budget
                )
                if job.abandoned:
                    raise
                if retryable and budget_left and attempt < policy.max_attempts:
                    delay = policy.delay_s(attempt - 1, token)
                    retries.inc()
                    with tracer.span(
                        "service.retry",
                        job_id=job.job_id,
                        attempt=attempt,
                        delay_s=round(delay, 4),
                        error=type(exc).__name__,
                    ):
                        await asyncio.sleep(delay)
                    continue
                if not isinstance(exc, WorkerCrashed) or len(chain) == 1:
                    raise
                crash, failed, chain = exc, ((job.backend, repr(exc)),), chain[1:]

    async def _worker(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            try:
                await self._process(job)
            finally:
                self._queue.task_done()
                self.metrics.queue.set(self._queue.qsize())

    async def _process(self, job: _Job) -> None:
        if job.abandoned:
            # Every submitter cancelled or timed out while the job was still
            # queued; skip the compilation entirely.
            self._inflight.pop(job.key, None)
            finished = time.perf_counter()
            for submitter in job.group:
                if submitter.finished_at is None:
                    submitter.finished_at = finished
            self._counter("abandonments").inc()
            return
        job.started_at = time.perf_counter()
        self.metrics.wait.record(job.started_at - job.submitted_at)
        tracer = get_tracer()
        try:
            with tracer.span(
                "service.job", backend=job.backend, job_id=job.job_id
            ) as job_span:
                with tracer.span("service.lookup"):
                    result, tier = self._lookup(job.key)
                store_key = job.key
                if result is None:
                    outcome = await self._compute(job)
                    if outcome is _ABANDONED:
                        self._inflight.pop(job.key, None)
                        return
                    result, tier = outcome.result, "compute"
                    if outcome.backend != job.backend:
                        # The caches stay honest: a fallback backend's result
                        # is stored under its own key, never the failed
                        # primary's — submitters are served directly instead.
                        store_key = CompileCache.key(job.request, outcome.backend)
                        job_span.set_attribute("fallback", outcome.backend)
                        self._counter("fallbacks").inc()
                    self._disk("put", store_key, result)
                if self.memory_cache is not None:
                    self.memory_cache.put(store_key, result)
                job_span.set_attribute("tier", tier)
        except asyncio.CancelledError:
            for submitter in job.group:
                if not submitter.future.done():
                    submitter.future.cancel()  # service shutdown mid-compile
            raise
        except Exception as exc:
            self._finish(job, error=exc)
            return
        job.tier = tier
        self._finish(job, result=result)

    def _finish(self, job: _Job, result=None, error=None) -> None:
        finished = time.perf_counter()
        self._inflight.pop(job.key, None)
        for submitter in job.group:
            self._cancel_deadline(submitter)
            if submitter.finished_at is None:
                submitter.finished_at = finished
            if submitter.future.done():
                continue  # cancelled or timed out; already settled
            self.metrics.total.record(finished - submitter.submitted_at)
            if error is None:
                tier = job.tier if submitter is job else "dedup"
                submitter.tier = tier
                self.metrics.count_tier(tier)
                submitter.future.set_result(result)
            else:
                submitter.error = repr(error)
                submitter.future.set_exception(error)
        if error is not None:
            if job.error is None:
                job.error = repr(error)
            self._counter("failures").inc()
