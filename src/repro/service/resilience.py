"""Resilience primitives for the compile service: retries and circuit breaking.

Two small, executor-agnostic policies plus the typed failures they produce:

* :class:`RetryPolicy` — exponential backoff with **deterministic** jitter
  (a hash of the retry token, not a live RNG, so a replayed workload backs
  off identically) and a retryable-exception classification.  The default
  classification retries transient infrastructure failures — ``OSError``
  (which covers :class:`~repro.faults.InjectedFault`), ``ConnectionError``
  and :class:`WorkerCrashed` — and never retries deterministic compile
  errors (a ``ValueError`` from a bad molecule will fail identically every
  attempt) or :class:`JobTimedOut` (the deadline already expired).
  An optional ``budget`` caps total retries service-wide so a systemic
  outage degrades to fast failures instead of a retry storm.

* :class:`CircuitBreaker` — the classic three-state machine guarding the
  disk tier.  ``failure_threshold`` *consecutive* failures open the breaker;
  while open, callers skip the guarded resource (the service degrades to
  memory → compute); after ``reset_timeout_s`` the breaker half-opens and
  admits probe traffic, and ``probe_successes`` consecutive probe successes
  close it again (any probe failure re-opens immediately).  A transition
  callback lets the owner mirror state into metrics/spans.

Both are plain synchronous objects — the asyncio service calls them between
awaits, so no internal locking is needed there; the breaker still takes a
lock so multi-threaded callers (tests, future sync front ends) stay safe.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type

from repro.api.batch import WorkerCrashed

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "JobTimedOut",
    "RetryPolicy",
    "WorkerCrashed",
]


class JobTimedOut(TimeoutError):
    """A job missed its deadline (queued or in-flight); never retried."""

    def __init__(self, job_id: str, deadline_s: float):
        super().__init__(
            f"job {job_id} exceeded its deadline of {deadline_s:g}s"
        )
        self.job_id = job_id
        self.deadline_s = deadline_s


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and typed classification.

    ``max_attempts`` counts the first try: ``3`` means one compile and up to
    two retries.  The delay before retry ``n`` (0-based) is::

        min(max_delay_s, base_delay_s * multiplier**n) * (1 + jitter * u)

    where ``u ∈ [0, 1)`` is a stable hash of ``(token, n)`` — the token is
    the job's cache-key digest, so two services replaying the same workload
    produce the same backoff schedule while distinct jobs still decorrelate.

    ``budget`` caps the total retries a service may spend across all jobs
    (``None`` = uncapped); the service tracks consumption in its metrics and
    stops retrying once the budget is spent.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    retryable: Tuple[Type[BaseException], ...] = (
        WorkerCrashed,
        OSError,
        ConnectionError,
    )
    budget: Optional[int] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be None or non-negative")

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth another attempt under this policy.

        :class:`JobTimedOut` is never retryable even though it subclasses
        ``TimeoutError`` (which a caller may have added to ``retryable``):
        the job's deadline has already passed, so a retry cannot succeed.
        """
        if isinstance(exc, JobTimedOut):
            return False
        return isinstance(exc, self.retryable)

    def delay_s(self, retry_index: int, token: str = "") -> float:
        """Backoff before 0-based retry ``retry_index``, jittered by ``token``."""
        if retry_index < 0:
            raise ValueError("retry_index must be non-negative")
        backoff = min(self.max_delay_s, self.base_delay_s * self.multiplier**retry_index)
        unit = zlib.crc32(f"{token}:{retry_index}".encode("utf-8")) / 2**32
        return backoff * (1.0 + self.jitter * unit)


#: Breaker states, also used as the numeric gauge values in ServiceMetrics.
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"

#: Gauge encoding of the breaker state (snapshot-friendly ordering).
BREAKER_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    ``allow()`` gates access to the guarded resource; ``record_success()`` /
    ``record_failure()`` report outcomes of the accesses that were allowed.
    ``on_transition(old_state, new_state)`` fires synchronously under the
    breaker lock whenever the state changes — keep it cheap (the service
    uses it to bump counters and emit a ``service.breaker`` span).
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 5.0
    probe_successes: int = 2
    clock: Callable[[], float] = time.monotonic
    on_transition: Optional[Callable[[str, str], None]] = None

    state: str = field(default=BREAKER_CLOSED, init=False)
    consecutive_failures: int = field(default=0, init=False)
    _probe_streak: int = field(default=0, init=False)
    _opened_at: float = field(default=0.0, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be non-negative")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be at least 1")

    def _transition(self, new_state: str) -> None:
        old_state = self.state
        if old_state == new_state:
            return
        self.state = new_state
        if new_state == BREAKER_OPEN:
            self._opened_at = self.clock()
            self.consecutive_failures = 0
        if new_state in (BREAKER_HALF_OPEN, BREAKER_CLOSED):
            self._probe_streak = 0
            self.consecutive_failures = 0
        if self.on_transition is not None:
            self.on_transition(old_state, new_state)

    def allow(self) -> bool:
        """Whether the guarded resource may be touched right now.

        While open, returns ``False`` until ``reset_timeout_s`` has elapsed,
        then transitions to half-open and admits probe traffic.
        """
        with self._lock:
            if self.state == BREAKER_OPEN:
                if self.clock() - self._opened_at < self.reset_timeout_s:
                    return False
                self._transition(BREAKER_HALF_OPEN)
            return True

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            if self.state == BREAKER_HALF_OPEN:
                self._probe_streak += 1
                if self._probe_streak >= self.probe_successes:
                    self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self.state == BREAKER_HALF_OPEN:
                self._transition(BREAKER_OPEN)  # a failed probe re-opens
                return
            self.consecutive_failures += 1
            if self.state == BREAKER_CLOSED and (
                self.consecutive_failures >= self.failure_threshold
            ):
                self._transition(BREAKER_OPEN)

    @property
    def state_code(self) -> int:
        """Numeric state for gauges: 0 closed, 1 half-open, 2 open."""
        return BREAKER_STATE_CODES[self.state]

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"consecutive_failures={self.consecutive_failures}, "
            f"threshold={self.failure_threshold})"
        )
