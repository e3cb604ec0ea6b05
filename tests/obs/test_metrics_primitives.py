"""Counter/Gauge/Histogram primitives, the reservoir bound, the registry."""

import random

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.obs.metrics import DEFAULT_MAX_SAMPLES


class TestCounter:
    def test_inc_reset_snapshot(self):
        counter = Counter("c")
        assert counter.inc() == 1
        assert counter.inc(5) == 6
        assert counter.snapshot() == 6
        counter.reset()
        assert counter.value == 0
        assert "c" in repr(counter)


class TestGauge:
    def test_set_tracks_peak(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.peak == 7
        assert gauge.snapshot() == {"value": 2, "peak": 7}
        gauge.reset()
        assert (gauge.value, gauge.peak) == (0, 0)
        assert "g" in repr(gauge)


class TestHistogramExact:
    """Below the cap: every sample stored, percentiles exact nearest-rank."""

    def make(self, values, **kwargs):
        histogram = Histogram("h", **kwargs)
        for value in values:
            histogram.record(value)
        return histogram

    def test_basic_accounting(self):
        histogram = self.make([3.0, 1.0, 2.0])
        assert histogram.count == 3
        assert len(histogram) == 3
        assert histogram.sum == pytest.approx(6.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(2.0)
        assert "count=3" in repr(histogram)

    def test_empty(self):
        histogram = Histogram("h")
        assert histogram.mean is None
        assert histogram.percentile(50) is None
        assert histogram.summary() == {"count": 0}
        assert histogram.min is None and histogram.max is None

    def test_percentile_bounds_checked(self):
        histogram = self.make([1.0])
        with pytest.raises(ValueError):
            histogram.percentile(-1)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    # Nearest-rank: rank = clamp(ceil(q/100 * N), 1, N), 1-indexed.  The
    # .5-boundary cases below are exactly where the old round()-based
    # formula went wrong (banker's rounding: round(1.0 + 0.5) == round(2.5)
    # == 2 but round(0.5) == 0), giving inconsistent p50 picks.
    def test_p50_of_two_samples_is_the_lower(self):
        assert self.make([1.0, 2.0]).percentile(50) == 1.0

    def test_p50_of_four_samples_is_the_second(self):
        assert self.make([1.0, 2.0, 3.0, 4.0]).percentile(50) == 2.0

    def test_p50_of_five_samples_is_the_median(self):
        assert self.make([1.0, 2.0, 3.0, 4.0, 5.0]).percentile(50) == 3.0

    def test_p25_of_two_samples(self):
        # ceil(0.5) = 1 -> first sample; round() would have picked rank 0.
        assert self.make([1.0, 2.0]).percentile(25) == 1.0

    def test_p0_is_the_minimum_and_p100_the_maximum(self):
        histogram = self.make([5.0, 1.0, 3.0])
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 5.0

    def test_single_sample_every_percentile(self):
        histogram = self.make([42.0])
        for q in (0, 25, 50, 75, 100):
            assert histogram.percentile(q) == 42.0

    def test_nearest_rank_on_1_to_100(self):
        # The ServiceMetrics latency convention: seconds in, known quantiles.
        histogram = self.make([i / 1000.0 for i in range(1, 101)])
        assert histogram.percentile(50) == pytest.approx(0.050)
        assert histogram.percentile(95) == pytest.approx(0.095)
        assert histogram.percentile(99) == pytest.approx(0.099)

    def test_summary_shape(self):
        summary = self.make([0.001, 0.002, 0.003]).summary()
        assert summary["count"] == 3
        assert summary["mean_ms"] == pytest.approx(2.0)
        assert summary["p50_ms"] == pytest.approx(2.0)
        assert summary["max_ms"] == pytest.approx(3.0)
        assert set(summary) == {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"}

    def test_reset(self):
        histogram = self.make([1.0, 2.0])
        histogram.reset()
        assert histogram.count == 0
        assert len(histogram) == 0
        assert histogram.summary() == {"count": 0}


class TestHistogramReservoir:
    """Beyond the cap: storage bounded, exact aggregates, sane percentiles."""

    def test_storage_is_bounded_but_count_exact(self):
        histogram = Histogram("bounded", max_samples=16)
        for i in range(1000):
            histogram.record(float(i))
        assert len(histogram) == 16
        assert histogram.count == 1000
        assert histogram.sum == pytest.approx(sum(range(1000)))
        assert histogram.min == 0.0
        assert histogram.max == 999.0
        assert histogram.mean == pytest.approx(499.5)

    def test_default_cap(self):
        assert Histogram("h").max_samples == DEFAULT_MAX_SAMPLES

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("h", max_samples=0)

    def test_exact_until_the_cap(self):
        histogram = Histogram("h", max_samples=10)
        for i in range(10):
            histogram.record(float(i))
        assert sorted(histogram.samples) == [float(i) for i in range(10)]
        assert histogram.percentile(100) == 9.0

    def test_reservoir_holds_only_recorded_values(self):
        histogram = Histogram("h", max_samples=8)
        values = [random.Random(7).uniform(0, 1) for _ in range(500)]
        for value in values:
            histogram.record(value)
        assert all(sample in values for sample in histogram.samples)
        percentile = histogram.percentile(50)
        assert min(values) <= percentile <= max(values)

    def test_reservoir_is_deterministic_per_name(self):
        def fill(name):
            histogram = Histogram(name, max_samples=8)
            for i in range(200):
                histogram.record(float(i))
            return histogram.samples

        assert fill("same") == fill("same")

    def test_reservoir_is_roughly_uniform(self):
        # With a 128-slot reservoir over 0..9999 the sample mean should land
        # near the population mean — a coarse sanity bound, not a sharp one.
        histogram = Histogram("uniformity", max_samples=128)
        for i in range(10000):
            histogram.record(float(i))
        mean_of_samples = sum(histogram.samples) / len(histogram.samples)
        assert abs(mean_of_samples - 4999.5) < 1500


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        assert registry.counter("a") is counter
        gauge = registry.gauge("b")
        assert registry.gauge("b") is gauge
        histogram = registry.histogram("c", max_samples=4)
        assert registry.histogram("c") is histogram

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_reset_zeroes_in_place_preserving_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("lat")
        counter.inc(5)
        histogram.record(1.0)
        registry.reset()
        assert registry.counter("hits") is counter
        assert counter.value == 0
        assert histogram.count == 0

    def test_names_len_contains_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(1)
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2
        assert "a" in registry and "missing" not in registry
        snapshot = registry.snapshot()
        assert snapshot["b"] == 2
        assert snapshot["a"] == {"value": 1, "peak": 1}

    def test_global_registry_is_a_singleton(self):
        assert get_metrics() is get_metrics()
        assert isinstance(get_metrics(), MetricsRegistry)
