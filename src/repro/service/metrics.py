"""Observability for the compile service: tier hit rates and latency tails.

:class:`ServiceMetrics` is the single metrics object a
:class:`~repro.service.CompileService` instance owns, a per-instance
:class:`~repro.obs.metrics.MetricsRegistry` holding

* **tier counters** ``service.tier.<tier>`` — how many finished jobs were
  served by each tier of the lookup path (``memory`` → ``disk`` →
  ``compute``) plus ``dedup`` joins (submits that attached to an identical
  in-flight compilation);
* **event counters** ``service.<name>`` — submits, failures, cancellations,
  backpressure rejections and the resilience events (deadline timeouts,
  retries, abandoned compilations, pool-worker crashes, backend-fallback
  completions, disk faults, lookups that skipped the disk tier while its
  circuit breaker was open, breaker open/close transitions).  The service
  increments them on the registry directly; read them from :meth:`snapshot`
  or ``metrics.registry.counter("service.<name>").value``;
* **gauges** — ``queue`` (queue depth, with its peak) and
  ``service.breaker.state``, the disk breaker's state code (0 closed,
  1 half-open, 2 open);
* **latency histograms** — ``wait`` (submit → worker pickup), ``compute``
  (backend compile only) and ``total`` (submit → result), bounded
  :class:`~repro.obs.metrics.Histogram` objects with p50/p95/p99.

Everything is JSON-serializable via :meth:`snapshot`, which is what
``benchmarks/bench_service.py`` dumps into ``BENCH_service.json``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["TIERS", "ServiceMetrics"]

#: The lookup tiers a finished job can be served from.
TIERS = ("memory", "disk", "compute", "dedup")

#: ``snapshot()["resilience"]`` keys → their registry counter names.
RESILIENCE_COUNTERS = {
    "timeouts": "service.timeouts",
    "retries": "service.retries",
    "abandonments": "service.abandonments",
    "worker_crashes": "service.worker_crashes",
    "fallbacks": "service.fallbacks",
    "disk_faults": "service.disk_faults",
    "disk_degraded": "service.disk_degraded",
    "breaker_opens": "service.breaker.opens",
    "breaker_closes": "service.breaker.closes",
}


class ServiceMetrics:
    """Counters, gauges and histograms of one :class:`CompileService`.

    A private :class:`~repro.obs.metrics.MetricsRegistry` backs every field,
    so each service instance snapshots independently; pass ``registry`` to
    aggregate several services into one registry instead.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._tier_counters = {
            tier: self.registry.counter(f"service.tier.{tier}") for tier in TIERS
        }
        self.queue = self.registry.gauge("service.queue_depth")
        self.wait = self.registry.histogram("service.latency.wait")
        self.compute = self.registry.histogram("service.latency.compute")
        self.total = self.registry.histogram("service.latency.total")

    @property
    def tier_counts(self) -> Dict[str, int]:
        return {tier: counter.value for tier, counter in self._tier_counters.items()}

    def _tier_counter(self, tier: str):
        counter = self._tier_counters.get(tier)
        if counter is None:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
        return counter

    def count_tier(self, tier: str) -> None:
        self._tier_counter(tier).inc()

    @property
    def served(self) -> int:
        """Jobs that finished successfully (every tier, dedup included)."""
        return sum(counter.value for counter in self._tier_counters.values())

    def hit_rate(self, tier: str) -> float:
        """Fraction of served jobs answered by ``tier`` (0.0 when idle)."""
        counter = self._tier_counter(tier)
        if self.served == 0:
            return 0.0
        return counter.value / self.served

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served jobs that avoided a compile entirely."""
        if self.served == 0:
            return 0.0
        avoided = self.served - self._tier_counters["compute"].value
        return avoided / self.served

    def snapshot(self) -> Dict:
        """One JSON-serializable dict of everything above."""
        count = lambda name: self.registry.counter(name).value  # noqa: E731
        return {
            "submitted": count("service.submitted"),
            "served": self.served,
            "tiers": self.tier_counts,
            "hit_rates": {
                tier: round(self.hit_rate(tier), 6) for tier in TIERS
            },
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "failures": count("service.failures"),
            "cancellations": count("service.cancellations"),
            "rejections": count("service.rejections"),
            "queue_depth": self.queue.value,
            "queue_depth_peak": self.queue.peak,
            "resilience": {
                **{key: count(name) for key, name in RESILIENCE_COUNTERS.items()},
                "breaker_state": self.registry.gauge("service.breaker.state").value,
            },
            "latency": {
                "wait": self.wait.summary(),
                "compute": self.compute.summary(),
                "total": self.total.summary(),
            },
        }
