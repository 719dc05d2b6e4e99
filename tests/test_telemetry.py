"""Telemetry core: histograms, metrics registry, events, exposition, capacity."""

from __future__ import annotations

import math
import pickle
import re
import threading
import urllib.request

import numpy as np
import pytest

from repro.telemetry import (
    BIN_HIGHEST,
    BIN_LOWEST,
    BINS_PER_DECADE,
    NUM_BINS,
    EventRing,
    LatencyHistogram,
    MetricsHTTPServer,
    MetricsRegistry,
    MetricsSnapshot,
    Telemetry,
    merge_events,
    summarize_events,
)

#: Each geometric bin spans a ratio of 10**(1/BINS_PER_DECADE); a quantile
#: estimate can be off by at most one bin width.
BIN_RATIO = 10.0 ** (1.0 / BINS_PER_DECADE)


class TestLatencyHistogram:
    def test_quantiles_match_numpy_within_bin_resolution(self):
        rng = np.random.default_rng(3)
        # Log-normal latencies spanning ~3 decades, all inside the finite range.
        values = np.exp(rng.normal(loc=math.log(5e-3), scale=1.2, size=20_000))
        values = np.clip(values, BIN_LOWEST * 2, BIN_HIGHEST / 2)
        histogram = LatencyHistogram()
        histogram.observe_many(values)
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            exact = float(np.quantile(values, q))
            estimate = histogram.quantile(q)
            assert exact / BIN_RATIO <= estimate <= exact * BIN_RATIO

    def test_observe_scalar_and_vector_paths_bin_identically(self):
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [
                np.power(10.0, rng.uniform(-6, 3, size=500)),
                np.asarray([0.0, BIN_LOWEST, BIN_HIGHEST, 1.0, -0.5]),
            ]
        )
        one_by_one = LatencyHistogram()
        for value in values:
            one_by_one.observe(float(value))
        small_batches = LatencyHistogram()
        for start in range(0, len(values), 7):  # below the vectorize threshold
            small_batches.observe_many(values[start : start + 7].tolist())
        vectorized = LatencyHistogram()
        vectorized.observe_many(values)
        assert np.array_equal(one_by_one.counts(), vectorized.counts())
        assert np.array_equal(one_by_one.counts(), small_batches.counts())
        assert one_by_one.count == len(values)

    def test_underflow_overflow_and_negative_clamp(self):
        histogram = LatencyHistogram()
        histogram.observe(BIN_LOWEST / 10)  # underflow
        histogram.observe(BIN_HIGHEST * 10)  # overflow
        histogram.observe(-1.0)  # clamped to 0.0 -> underflow
        counts = histogram.counts()
        assert counts[0] == 2
        assert counts[NUM_BINS - 1] == 1
        assert histogram.quantile(0.0) == BIN_LOWEST
        assert histogram.quantile(1.0) == BIN_HIGHEST
        assert histogram.sum == BIN_LOWEST / 10 + BIN_HIGHEST * 10

    def test_empty_histogram_is_all_zero(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean == 0.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_merge_is_associative_and_matches_pooled_observations(self):
        rng = np.random.default_rng(7)
        shards = [
            np.power(10.0, rng.uniform(-5, 1, size=400)) for _ in range(3)
        ]
        parts = []
        for shard_values in shards:
            histogram = LatencyHistogram()
            histogram.observe_many(shard_values)
            parts.append(histogram)

        def rebuild(index):
            return LatencyHistogram.from_state(
                parts[index].counts(), parts[index].sum
            )

        left = rebuild(0).merge(rebuild(1)).merge(rebuild(2))
        right = rebuild(0).merge(rebuild(1).merge(rebuild(2)))
        merged = LatencyHistogram.merged(parts)
        pooled = LatencyHistogram()
        pooled.observe_many(np.concatenate(shards))
        for histogram in (left, right, merged):
            assert np.array_equal(histogram.counts(), pooled.counts())
            assert histogram.count == pooled.count
            assert histogram.sum == pytest.approx(pooled.sum)
            assert histogram.quantile(0.95) == pooled.quantile(0.95)

    def test_from_state_round_trip(self):
        histogram = LatencyHistogram()
        histogram.observe_many([1e-4, 3e-3, 0.2, 5.0])
        rebuilt = LatencyHistogram.from_state(histogram.counts(), histogram.sum)
        assert np.array_equal(rebuilt.counts(), histogram.counts())
        assert rebuilt.count == histogram.count
        assert rebuilt.quantiles() == histogram.quantiles()

    def test_from_state_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            LatencyHistogram.from_state(np.zeros(NUM_BINS - 1), 0.0)

    def test_concurrent_observers_lose_nothing(self):
        histogram = LatencyHistogram()
        counter_metric = MetricsRegistry().counter("stress_total")
        per_thread, num_threads = 2_000, 8
        barrier = threading.Barrier(num_threads)

        def hammer(seed):
            rng = np.random.default_rng(seed)
            values = np.power(10.0, rng.uniform(-5, 1, size=per_thread))
            barrier.wait()
            for index, value in enumerate(values.tolist()):
                if index % 64 == 0:
                    histogram.observe_many(values[index : index + 4])
                histogram.observe(value)
                counter_metric.inc()

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = num_threads * per_thread
        assert counter_metric.value == expected
        # observe() once per value plus one observe_many(4) every 64 values
        # (including index 0).
        batched = (per_thread + 63) // 64 * 4
        assert histogram.count == expected + num_threads * batched
        assert int(histogram.counts().sum()) == histogram.count


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "help", building="b0")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4.0)
        gauge.dec()
        gauge.inc(0.5)
        assert gauge.value == 3.5

    def test_same_labels_return_same_child_any_kwarg_order(self):
        registry = MetricsRegistry()
        first = registry.counter("ops_total", building="b", op="load")
        second = registry.counter("ops_total", op="load", building="b")
        assert first is second
        other = registry.counter("ops_total", building="b", op="evict")
        assert other is not first

    def test_kind_and_label_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", building="b")
        with pytest.raises(ValueError):
            registry.gauge("thing_total", building="b")
        with pytest.raises(ValueError):
            registry.counter("thing_total", shard="0")
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", **{"0bad": "x"})

    def test_const_labels_stamped_on_every_child(self):
        registry = MetricsRegistry(const_labels={"shard": "2"})
        registry.counter("requests_total", building="b0").inc(3)
        snapshot = registry.snapshot()
        assert snapshot.value("requests_total", shard="2", building="b0") == 3.0
        assert snapshot.value("requests_total", building="b0") == 0.0

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("requests_total")
        counter.inc(100)
        registry.histogram("latency_seconds").observe(1.0)
        assert counter.value == 0.0
        assert registry.snapshot().families == ()
        assert registry.render_prometheus() == "\n"

    def test_snapshot_is_picklable_and_mergeable(self):
        shards = []
        for shard in range(2):
            telemetry = Telemetry(shard=shard)
            telemetry.metrics.counter("fleet_requests_total", building="b0").inc(
                5 * (shard + 1)
            )
            telemetry.metrics.histogram(
                "fleet_request_latency_seconds", building="b0"
            ).observe_many([1e-3 * (shard + 1)] * 10)
            telemetry.metrics.gauge("fleet_shard_inflight").set(shard)
            shards.append(
                pickle.loads(pickle.dumps(telemetry.metrics.snapshot()))
            )
        merged = MetricsSnapshot.merge(shards)
        # Counters keep their shard labels apart and sum only within a child.
        assert merged.value("fleet_requests_total", shard="0", building="b0") == 5.0
        assert merged.value("fleet_requests_total", shard="1", building="b0") == 10.0
        state = merged.histogram_state(
            "fleet_request_latency_seconds", shard="1", building="b0"
        )
        assert state is not None and state.count == 10
        # latency_summary pools children across shards along the building axis.
        summary = merged.latency_summary("fleet_request_latency_seconds", "building")
        assert summary["b0"]["count"] == 20.0
        assert summary["b0"]["p50_s"] > 0.0

    def test_merge_kind_conflict_raises(self):
        first = MetricsRegistry()
        first.counter("thing")
        second = MetricsRegistry()
        second.gauge("thing")
        with pytest.raises(ValueError):
            MetricsSnapshot.merge([first.snapshot(), second.snapshot()])


SAMPLE_LINE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})? -?[0-9].*$"
)


class TestPrometheusExposition:
    def test_help_type_and_sample_lines_are_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("fleet_requests_total", "Requests served", building="b0").inc(7)
        registry.gauge("fleet_inflight_requests", "Queued right now").set(3)
        registry.histogram(
            "fleet_request_latency_seconds", "Submit-to-complete", building="b0"
        ).observe_many([1e-3, 2e-3, 0.5])
        text = registry.render_prometheus()
        assert text.endswith("\n")
        lines = text.rstrip("\n").split("\n")
        for name, kind in (
            ("fleet_requests_total", "counter"),
            ("fleet_inflight_requests", "gauge"),
            ("fleet_request_latency_seconds", "histogram"),
        ):
            assert f"# TYPE {name} {kind}" in lines
            assert any(line.startswith(f"# HELP {name} ") for line in lines)
        for line in lines:
            if line.startswith("#"):
                continue
            assert SAMPLE_LINE_RE.match(line), line

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")
        histogram.observe_many([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
        lines = registry.render_prometheus().splitlines()
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("latency_seconds_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 6  # the +Inf bucket covers everything
        assert 'le="+Inf"' in [l for l in lines if "_bucket" in l][-1]
        assert "latency_seconds_count 6" in lines

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", building='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert 'building="a\\"b\\\\c\\nd"' in text

    def test_help_newlines_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("helpful_total", "line one\nline two").inc()
        help_lines = [
            line
            for line in registry.render_prometheus().splitlines()
            if line.startswith("# HELP helpful_total")
        ]
        assert help_lines == ["# HELP helpful_total line one\\nline two"]

    def test_http_endpoint_serves_and_404s(self):
        registry = MetricsRegistry()
        registry.counter("scraped_total").inc(2)
        with MetricsHTTPServer(registry.render_prometheus, port=0) as server:
            with urllib.request.urlopen(server.url, timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                body = response.read().decode("utf-8")
            assert "scraped_total 2" in body
            base = server.url.rsplit("/", 1)[0]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=10)
            assert excinfo.value.code == 404
        assert not server.running


class TestEventRing:
    def test_overflow_drops_oldest_and_counts(self):
        ring = EventRing(capacity=3)
        for index in range(5):
            ring.emit("tick", sequence=index)
        assert len(ring) == 3
        assert ring.drops == 2
        retained = [event.details_dict["sequence"] for event in ring.snapshot()]
        assert retained == [2, 3, 4]
        ring.clear()
        assert len(ring) == 0 and ring.drops == 2

    def test_shard_stamp_and_disabled_ring(self):
        ring = EventRing(shard=3)
        event = ring.emit("refresh-start", building_id="b0", trigger="drift")
        assert event.shard == 3
        assert event.building_id == "b0"
        assert event.details_dict == {"trigger": "drift"}
        inert = EventRing(enabled=False)
        assert inert.emit("ignored") is None
        assert len(inert) == 0

    def test_merge_orders_by_timestamp_and_filters_kinds(self):
        rings = [EventRing(shard=index) for index in range(3)]
        for round_index in range(4):
            for ring in rings:
                ring.emit("tick" if round_index % 2 == 0 else "tock")
        merged = merge_events(ring.snapshot() for ring in rings)
        stamps = [event.timestamp for event in merged]
        assert stamps == sorted(stamps)
        assert len(merged) == 12
        only_ticks = merge_events(
            (ring.snapshot() for ring in rings), kinds=["tick"]
        )
        assert {event.kind for event in only_ticks} == {"tick"}
        assert summarize_events(merged) == {"tick": 6, "tock": 6}

    def test_events_pickle_cleanly(self):
        ring = EventRing(shard=1)
        ring.emit("shard-start", pid=123)
        restored = pickle.loads(pickle.dumps(ring.snapshot()))
        assert restored[0].kind == "shard-start"
        assert restored[0].details_dict == {"pid": 123}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)


class TestTelemetryBundle:
    def test_disabled_bundle_is_fully_inert(self):
        telemetry = Telemetry.disabled()
        telemetry.metrics.counter("anything_total").inc(5)
        telemetry.events.emit("ignored")
        assert telemetry.metrics.snapshot().families == ()
        assert len(telemetry.events) == 0

    def test_shard_propagates_to_labels_and_events(self):
        telemetry = Telemetry(shard=4)
        telemetry.metrics.counter("requests_total").inc()
        event = telemetry.events.emit("shard-start")
        assert event.shard == 4
        snapshot = telemetry.metrics.snapshot()
        assert snapshot.value("requests_total", shard="4") == 1.0
        assert 'shard="4"' in telemetry.render_prometheus()
