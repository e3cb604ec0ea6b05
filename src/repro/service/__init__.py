"""Compile-as-a-service: async job API over a tiered compile cache.

The service layer turns the per-call batch compiler into a long-lived,
shareable service — the "millions of users" deployment story, where most
traffic repeats the same molecules/configs and should never recompile:

* :class:`PersistentCompileCache` — sharded, version-stamped, LRU-bounded
  on-disk results shared across processes (atomic writes, stale-version
  invalidation tied to the golden files); it lives in
  :mod:`repro.api.store`, below the service, and is re-exported here;
* :class:`CompileService` — asyncio front end with ``submit / status /
  result / cancel``, per-job priorities and deadlines, a bounded queue
  (backpressure via :class:`ServiceOverloadedError` with a ``retry_after_s``
  hint) and deduplication of identical in-flight requests, serving every job
  through memory → disk → compute;
* the resilience layer — :class:`RetryPolicy` (exponential backoff with
  deterministic jitter), :class:`CircuitBreaker` guarding the disk tier
  (graceful degradation to memory → compute), :class:`JobTimedOut` /
  :class:`WorkerCrashed` typed failures, worker-crash pool replenishment
  and draining shutdown — chaos-tested under :mod:`repro.faults` injection;
* :class:`ServiceMetrics` — a per-service metrics registry: per-tier hit
  rates, queue depth, resilience counters (timeouts/retries/breaker
  transitions) and wait/compute/total latency histograms (p50/p95/p99),
  read through ``snapshot()``, which ``benchmarks/bench_service.py`` dumps
  into ``BENCH_service.json``.

>>> from repro.service import CompileService, PersistentCompileCache
>>> async with CompileService(disk_cache=PersistentCompileCache(".cc")) as svc:
...     result = await svc.compile(request, backend="advanced")
...     svc.metrics.snapshot()["hit_rates"]
"""

from repro.api.store import (
    CACHE_FORMAT_VERSION,
    PersistentCompileCache,
    golden_version_stamp,
)
from repro.service.metrics import TIERS, ServiceMetrics
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    JobTimedOut,
    RetryPolicy,
    WorkerCrashed,
)
from repro.service.service import (
    CompileService,
    JobCancelledError,
    JobState,
    JobStatus,
    ServiceDrainingError,
    ServiceOverloadedError,
    UnknownJobError,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CACHE_FORMAT_VERSION",
    "CircuitBreaker",
    "CompileService",
    "JobCancelledError",
    "JobState",
    "JobStatus",
    "JobTimedOut",
    "PersistentCompileCache",
    "RetryPolicy",
    "ServiceDrainingError",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "TIERS",
    "UnknownJobError",
    "WorkerCrashed",
    "golden_version_stamp",
]
