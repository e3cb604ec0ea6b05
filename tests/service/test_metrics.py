"""Tests for the service metrics: histograms, tier rates, snapshots."""

import pytest

from repro.obs import Histogram
from repro.service import TIERS, ServiceMetrics


class TestLatencyHistogram:
    def test_empty_summary(self):
        histogram = Histogram("wait")
        assert histogram.summary() == {"count": 0}
        assert histogram.percentile(50) is None
        assert len(histogram) == 0

    def test_percentiles_nearest_rank(self):
        histogram = Histogram("total")
        for value in range(1, 101):  # 1..100 ms
            histogram.record(value / 1e3)
        assert histogram.percentile(50) == pytest.approx(0.050)
        assert histogram.percentile(95) == pytest.approx(0.095)
        assert histogram.percentile(99) == pytest.approx(0.099)
        assert histogram.percentile(0) == pytest.approx(0.001)
        assert histogram.percentile(100) == pytest.approx(0.100)

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_summary_fields(self):
        histogram = Histogram("compute")
        histogram.record(0.002)
        histogram.record(0.004)
        summary = histogram.summary()
        assert summary["count"] == 2
        assert summary["mean_ms"] == pytest.approx(3.0)
        assert summary["max_ms"] == pytest.approx(4.0)
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]


class TestServiceMetrics:
    def test_tier_counting_and_rates(self):
        metrics = ServiceMetrics()
        for _ in range(3):
            metrics.count_tier("memory")
        metrics.count_tier("compute")
        assert metrics.served == 4
        assert metrics.hit_rate("memory") == pytest.approx(0.75)
        assert metrics.cache_hit_rate == pytest.approx(0.75)

    def test_unknown_tier_rejected(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError, match="unknown tier"):
            metrics.count_tier("l2")
        with pytest.raises(ValueError, match="unknown tier"):
            metrics.hit_rate("l2")

    def test_idle_rates_are_zero(self):
        metrics = ServiceMetrics()
        assert metrics.hit_rate("disk") == 0.0
        assert metrics.cache_hit_rate == 0.0

    def test_queue_depth_peak(self):
        metrics = ServiceMetrics()
        for depth in (1, 4, 2):
            metrics.queue.set(depth)
        assert metrics.snapshot()["queue_depth"] == 2
        assert metrics.snapshot()["queue_depth_peak"] == 4

    def test_snapshot_is_json_shaped(self):
        import json

        metrics = ServiceMetrics()
        metrics.count_tier("disk")
        metrics.wait.record(0.001)
        metrics.total.record(0.002)
        snapshot = metrics.snapshot()
        assert set(snapshot["tiers"]) == set(TIERS)
        assert snapshot["served"] == 1
        assert snapshot["hit_rates"]["disk"] == 1.0
        assert snapshot["latency"]["wait"]["count"] == 1
        json.dumps(snapshot)  # must round-trip to JSON
