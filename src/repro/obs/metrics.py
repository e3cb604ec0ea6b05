"""Metrics primitives: counters, gauges, bounded histograms, one registry.

These are the shared observability substrate every subsystem records into —
:class:`~repro.service.metrics.ServiceMetrics` is built on them, the
chemistry caches count hits/misses through them, and the verify engines count
dispatch decisions.  Everything is plain Python, JSON-serializable via
``snapshot()``, and cheap enough to leave permanently enabled (an increment
is one attribute add; nothing allocates per event).

:class:`Histogram` keeps samples **bounded**: below ``max_samples`` every
sample is stored and percentiles are exact; beyond it, reservoir sampling
(Algorithm R, deterministic per-histogram seed) keeps a uniform sample while
``count``/``sum``/``min``/``max`` stay exact, so a long-running
:class:`~repro.service.CompileService` no longer grows memory without bound.

Percentiles use the *nearest-rank* definition: ``rank = ceil(q / 100 * N)``
clamped to ``[1, N]``, i.e. the smallest stored sample at or above the q-th
percentile position.  (The previous implementation used ``round()``, whose
banker's rounding made rank selection inconsistent at ``.5`` boundaries —
e.g. p50 of 2 vs 4 samples; pinned by tests/obs/test_metrics_primitives.py.)
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
]

#: Default sample bound of a :class:`Histogram` (exact percentiles below it).
DEFAULT_MAX_SAMPLES = 4096


class Counter:
    """A monotonically *usable* integer count (manual resets allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        self.value += amount
        return self.value

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value with a retained high-water mark."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.peak = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def reset(self) -> None:
        self.value = 0
        self.peak = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value, "peak": self.peak}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value}, peak={self.peak})"


class Histogram:
    """Bounded sample store with nearest-rank percentile summaries.

    ``len(h)`` is the number of *stored* samples (≤ ``max_samples``);
    ``h.count`` is the number of *recorded* samples.  Below the bound the two
    agree and percentiles are exact; above it percentiles are reservoir
    estimates while ``count``, ``sum``, ``min``, ``max`` (hence the mean)
    remain exact.
    """

    __slots__ = ("name", "max_samples", "samples", "count", "sum", "min", "max", "_rng")

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        self.name = name
        self.max_samples = max_samples
        self.samples: List[float] = []
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # Deterministic per-name seed so reservoir contents are reproducible.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
        else:  # Algorithm R: keep each recorded value with probability cap/count
            slot = self._rng.randrange(self.count)
            if slot < self.max_samples:
                self.samples[slot] = value

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile: stored sample at rank ``ceil(q/100·N)``.

        Exact while ``count <= max_samples``; a reservoir estimate beyond.
        Returns ``None`` when empty.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be between 0 and 100")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = min(len(ordered), max(1, math.ceil(q / 100 * len(ordered))))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, Any]:
        """JSON-ready summary in milliseconds (latencies are stored in s)."""
        if not self.count:
            return {"count": 0}
        to_ms = lambda s: round(s * 1e3, 4)  # noqa: E731 - tiny local adapter
        return {
            "count": self.count,
            "mean_ms": to_ms(self.sum / self.count),
            "p50_ms": to_ms(self.percentile(50)),
            "p95_ms": to_ms(self.percentile(95)),
            "p99_ms": to_ms(self.percentile(99)),
            "max_ms": to_ms(self.max),
        }

    def reset(self) -> None:
        self.samples = []
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def snapshot(self) -> Dict[str, Any]:
        return self.summary()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, stored={len(self.samples)})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of named metrics with one JSON snapshot.

    Metric objects are stable: fetching an existing name returns the *same*
    object, and :meth:`reset` zeroes values in place, so call sites may cache
    the object at import time and never re-look it up on the hot path.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, max_samples))

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def reset(self) -> None:
        """Zero every metric in place (objects and identities survive)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> Dict[str, Any]:
        """``{name: value}`` for every metric, JSON-serializable."""
        return {name: metric.snapshot() for name, metric in sorted(self._metrics.items())}


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry instrumented call sites use."""
    return _METRICS
