"""Sharded multi-process fleet serving: routing, identity, backpressure."""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import (
    BuildingRegistry,
    DriftThresholds,
    FleetServer,
    LabelRequest,
    RefreshPolicy,
    ShardedFleetServer,
    ShardOverloadedError,
)
from repro.serving.sharded import ConsistentHashRing, _WireBatch, stable_hash64
from repro.signals.batch import MacVocab, RecordBatch
from repro.signals.record import SignalRecord
from repro.simulate import (
    LoadProfile,
    generate_label_traffic,
    generate_single_building,
    replay_traffic,
)

FAST_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=2,
    max_pairs_per_epoch=8_000,
    inference_passes=1,
    inference_sample_sizes=(20, 10),
)

BUILDING_IDS = ("shard-test-a", "shard-test-b", "shard-test-c")


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    """Three small fitted buildings persisted to one store, plus streams."""
    store = tmp_path_factory.mktemp("fleet-store")
    registry = BuildingRegistry(store_dir=store, config=FAST_CONFIG, capacity=4)
    streams = {}
    for index, building_id in enumerate(BUILDING_IDS):
        labeled = generate_single_building(
            num_floors=3, samples_per_floor=25, seed=40 + index
        )
        train, stream = labeled.holdout_split(train_per_floor=18)
        anchor = train.pick_labeled_sample(floor=0)
        observed = train.strip_labels(keep_record_ids=[anchor.record_id])
        registry.register(building_id, observed, anchor_record_id=anchor.record_id)
        registry.get(building_id)
        streams[building_id] = [record.without_floor() for record in stream]
    return store, streams


def label_tuples(responses):
    return [
        (label.record_id, label.floor, label.confidence, label.known_mac_fraction)
        for response in responses
        for label in response.labels
    ]


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        first, second = ConsistentHashRing(4), ConsistentHashRing(4)
        keys = [f"building-{i}" for i in range(200)]
        assert [first.shard_for(k) for k in keys] == [second.shard_for(k) for k in keys]

    def test_shards_in_range_and_all_used(self):
        ring = ConsistentHashRing(4)
        owners = {ring.shard_for(f"b-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_resize_remaps_only_a_fraction(self):
        before, after = ConsistentHashRing(4), ConsistentHashRing(5)
        keys = [f"building-{i}" for i in range(1000)]
        moved = sum(before.shard_for(k) != after.shard_for(k) for k in keys)
        # Consistent hashing moves ~1/5 of keys going 4 -> 5 shards; naive
        # modulo hashing would move ~4/5.  Allow generous slack.
        assert moved / len(keys) < 0.45

    def test_stable_hash_is_process_independent(self):
        # blake2b, not the salted builtin hash: the exact value is part of
        # the routing contract between dispatcher and workers.
        assert stable_hash64("bench-000") == stable_hash64("bench-000")
        assert stable_hash64("a") != stable_hash64("b")

    def test_benchmark_fleet_ids_stay_balanced(self):
        # The worker-count sweep in benchmarks/test_serving_throughput.py
        # relies on these ids splitting evenly; a ring change that unbalances
        # them must fail here, not as a silent benchmark distortion.
        fleet = [
            "bench-003", "bench-009", "bench-000", "bench-004",
            "bench-002", "bench-008", "bench-015", "bench-016",
        ]
        assert Counter(
            ConsistentHashRing(4).shard_for(b) for b in fleet
        ) == {0: 2, 1: 2, 2: 2, 3: 2}
        assert Counter(
            ConsistentHashRing(2).shard_for(b) for b in fleet
        ) == {0: 4, 1: 4}

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)
        with pytest.raises(ValueError):
            ConsistentHashRing(2, replicas=0)


class TestWireBatch:
    def test_round_trip_reinterns_against_shard_vocab(self):
        records = [
            SignalRecord("r0", {"aa": -40.0, "bb": -55.0}, floor=1,
                         position=(1.0, 2.0), device_id="dev", timestamp=5.0),
            SignalRecord("r1", {"bb": -60.0, "cc": -70.0}),
        ]
        batch = RecordBatch.from_records(records, vocab=MacVocab())
        shard_vocab = MacVocab(["zz"])  # pre-populated: ids must translate
        rebuilt = _WireBatch.from_batch(batch).to_batch(shard_vocab)
        assert rebuilt.vocab is shard_vocab
        assert rebuilt.to_records() == records

    def test_wire_form_carries_only_used_macs(self):
        vocab = MacVocab([f"mac-{i}" for i in range(100)])
        batch = RecordBatch.from_records(
            [SignalRecord("r0", {"mac-7": -50.0, "mac-9": -60.0})], vocab=vocab
        )
        wire = _WireBatch.from_batch(batch)
        assert set(wire.macs) == {"mac-7", "mac-9"}


class TestShardedFleetServer:
    def test_labels_identical_to_single_process_server(self, fleet_store):
        store, streams = fleet_store
        traffic = generate_label_traffic(
            streams,
            num_requests=18,
            profile=LoadProfile(batch_size_mix=((3, 0.5), (9, 0.5))),
            seed=11,
        )
        with ShardedFleetServer(
            store, num_workers=2, config=FAST_CONFIG, shard_capacity=2
        ) as server:
            futures, _ = replay_traffic(server.submit, traffic)
            sharded = [future.result(timeout=120) for future in futures]
            assert {server.shard_for(b) for b in streams} <= {0, 1}
        registry = BuildingRegistry(store_dir=store, config=FAST_CONFIG)
        with FleetServer(registry) as single:
            futures = [
                single.submit(request.building_id, request.records)
                for request in traffic
            ]
            in_process = [future.result(timeout=120) for future in futures]
        assert label_tuples(sharded) == label_tuples(in_process)

    def test_record_sequence_payloads(self, fleet_store):
        store, streams = fleet_store
        building_id = BUILDING_IDS[0]
        records = streams[building_id][:5]
        with ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG) as server:
            response = server.submit(building_id, records).result(timeout=120)
        assert [label.record_id for label in response.labels] == [
            record.record_id for record in records
        ]

    def test_serve_returns_responses_in_request_order(self, fleet_store):
        store, streams = fleet_store
        vocab = MacVocab()
        requests = [
            LabelRequest(
                request_id=f"req-{index}",
                building_id=building_id,
                records=RecordBatch.from_records(streams[building_id][:4], vocab=vocab),
            )
            for index, building_id in enumerate(BUILDING_IDS * 2)
        ]
        with ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG) as server:
            responses = server.serve(requests)
        assert [response.request_id for response in responses] == [
            request.request_id for request in requests
        ]
        assert all(
            response.building_id == request.building_id
            for response, request in zip(responses, requests)
        )

    def test_unknown_building_raises_via_future(self, fleet_store):
        store, streams = fleet_store
        record = streams[BUILDING_IDS[0]][0]
        with ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG) as server:
            future = server.submit("no-such-building", [record])
            with pytest.raises(KeyError):
                future.result(timeout=120)

    def test_invalid_building_id_rejected_at_submit(self, fleet_store):
        store, streams = fleet_store
        record = streams[BUILDING_IDS[0]][0]
        with ShardedFleetServer(store, num_workers=1, config=FAST_CONFIG) as server:
            with pytest.raises(ValueError):
                server.submit("../escape", [record])
            with pytest.raises(ValueError):
                server.submit(BUILDING_IDS[0], [])

    def test_submit_requires_running_server(self, fleet_store):
        store, streams = fleet_store
        server = ShardedFleetServer(store, num_workers=1, config=FAST_CONFIG)
        with pytest.raises(RuntimeError):
            server.submit(BUILDING_IDS[0], streams[BUILDING_IDS[0]][:1])
        server.stop()  # stopping a never-started server is a no-op

    def test_backpressure_rejects_then_serve_retries(self, fleet_store):
        store, streams = fleet_store
        building_id = BUILDING_IDS[0]
        records = streams[building_id][:3]
        with ShardedFleetServer(
            store, num_workers=1, config=FAST_CONFIG, max_inflight=1
        ) as server:
            futures = []
            rejections = []
            for _ in range(300):
                try:
                    futures.append(server.submit(building_id, records))
                except ShardOverloadedError as error:
                    rejections.append(error)
            assert rejections, "a 1-deep inflight window must reject a flood"
            assert all(error.retry_after_s > 0 for error in rejections)
            assert all(error.shard == 0 for error in rejections)
            for future in futures:
                future.result(timeout=120)
            stats = server.stats()
            assert stats.num_rejected == len(rejections)
            # serve() retries rejected submits until the shard drains.
            requests = [
                LabelRequest(
                    request_id=f"retry-{index}",
                    building_id=building_id,
                    records=tuple(records),
                )
                for index in range(30)
            ]
            responses = server.serve(requests)
            assert len(responses) == len(requests)

    def test_fleet_wide_stats_aggregate_shards(self, fleet_store):
        store, streams = fleet_store
        with ShardedFleetServer(
            store, num_workers=2, config=FAST_CONFIG, shard_capacity=2
        ) as server:
            total = 0
            futures = []
            for building_id in BUILDING_IDS:
                records = streams[building_id][:6]
                total += len(records)
                futures.append(server.submit(building_id, records))
            for future in futures:
                future.result(timeout=120)
            stats = server.stats()
        assert stats.num_records == total
        assert stats.num_requests == len(BUILDING_IDS)
        assert stats.num_records == sum(s.server.num_records for s in stats.shards)
        assert stats.elapsed_s > 0
        assert np.isfinite(stats.records_per_second)

    def test_drift_snapshot_routes_to_owning_shard(self, fleet_store):
        store, streams = fleet_store
        building_id = BUILDING_IDS[1]
        records = streams[building_id][:8]
        with ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG) as server:
            server.submit(building_id, records).result(timeout=120)
            snapshot = server.drift_snapshot(building_id)
            other = server.drift_snapshot(BUILDING_IDS[0])
        assert snapshot.num_records == len(records)
        assert other.num_records == 0

    def test_refresh_drifted_sweeps_across_shards(self, fleet_store):
        store, streams = fleet_store
        policy = RefreshPolicy(
            thresholds=DriftThresholds(
                min_records=8, max_unknown_mac_fraction=0.10
            ),
            min_new_records=4,
            fine_tune_epochs=1,
        )
        building_id = BUILDING_IDS[2]
        # Alien MACs drive the unknown fraction over the threshold.
        drifted = [
            SignalRecord(
                f"drift-{index}",
                {**record.readings, "aa:new:ap": -50.0, "bb:new:ap": -55.0},
            )
            for index, record in enumerate(streams[building_id][:12])
        ]
        with ShardedFleetServer(
            store, num_workers=2, config=FAST_CONFIG, refresh_policy=policy
        ) as server:
            server.submit(building_id, drifted).result(timeout=120)
            assert server.drift_snapshot(building_id).drifted
            reports = server.refresh_drifted()
            # Only the drifted building refreshed; its report reflects the
            # alien-MAC records it absorbed.
            assert set(reports) == {building_id}
            assert reports[building_id].num_new_records > 0
            # The refreshed generation keeps serving.
            response = server.submit(
                building_id, streams[building_id][12:16]
            ).result(timeout=120)
            assert len(response.labels) == 4

    def test_restart_after_stop(self, fleet_store):
        store, streams = fleet_store
        server = ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG)
        building_id = BUILDING_IDS[0]
        with server:
            server.submit(building_id, streams[building_id][:2]).result(timeout=120)
        assert not server.running
        with server:
            response = server.submit(
                building_id, streams[building_id][2:4]
            ).result(timeout=120)
        assert len(response.labels) == 2

    def test_building_ids_lists_the_store(self, fleet_store):
        store, _ = fleet_store
        server = ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG)
        assert set(BUILDING_IDS) <= set(server.building_ids)

    def test_constructor_validation(self, fleet_store):
        store, _ = fleet_store
        with pytest.raises(ValueError):
            ShardedFleetServer(store, num_workers=0)
        with pytest.raises(ValueError):
            ShardedFleetServer(store, max_inflight=0)
        with pytest.raises(ValueError):
            ShardedFleetServer(store, shard_capacity=0)


class TestFleetTelemetry:
    def test_fleet_metrics_events_and_exposition(self, fleet_store):
        """Worker registries merge into one scrapeable fleet-wide view."""
        store, streams = fleet_store
        requests_per_building = 2
        vocab = MacVocab()
        with ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG) as server:
            # Columnar payloads take the _WireBatch path, so both wire-side
            # histograms (parent encode, worker decode) see traffic.
            futures = [
                server.submit(
                    building_id,
                    RecordBatch.from_records(records[start : start + 5], vocab=vocab),
                )
                for building_id, records in streams.items()
                for start in (0, 5)
            ]
            for future in futures:
                future.result(timeout=120)
            snapshot = server.fleet_metrics(timeout_s=60)
            events = server.fleet_events(timeout_s=60)
            summary = server.latency_summary(by="building", timeout_s=60)
            text = server.render_prometheus(timeout_s=60)

        # Every completed request is counted exactly once fleet-wide, and
        # each worker's counters stay attributable through the shard label.
        requests_family = snapshot.family("fleet_requests_total")
        assert requests_family is not None and requests_family.kind == "counter"
        total = sum(sample.value for sample in requests_family.samples)
        assert total == requests_per_building * len(streams)
        assert all(
            dict(sample.labels).keys() == {"shard", "building"}
            for sample in requests_family.samples
        )

        # Per-request latency histograms merge across shards per building.
        assert set(summary) == set(streams)
        for building_id in streams:
            assert summary[building_id]["count"] == requests_per_building
            assert summary[building_id]["p99_s"] > 0.0

        # The wire path is instrumented on both sides of the connection.
        assert snapshot.family("fleet_wire_encode_seconds") is not None
        decode = snapshot.family("fleet_frame_decode_seconds")
        assert decode is not None
        assert sum(
            s.histogram.count for s in decode.samples if ("side", "server") in s.labels
        ) > 0

        # Each worker announced itself on the merged fleet timeline.
        starts = [event for event in events if event.kind == "shard-start"]
        assert {event.shard for event in starts} == {0, 1}
        stamps = [event.timestamp for event in events]
        assert stamps == sorted(stamps)

        # The merged view renders as a valid-looking Prometheus exposition.
        assert "# TYPE fleet_requests_total counter" in text
        assert "# TYPE fleet_request_latency_seconds histogram" in text
        assert 'shard="0"' in text and 'shard="1"' in text

    def test_latency_summary_by_shard_covers_all_workers(self, fleet_store):
        store, streams = fleet_store
        with ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG) as server:
            futures = [
                server.submit(building_id, records[:4])
                for building_id, records in streams.items()
            ]
            for future in futures:
                future.result(timeout=120)
            by_shard = server.latency_summary(by="shard", timeout_s=60)
        owners = {str(server.shard_for(building_id)) for building_id in streams}
        assert set(by_shard) == owners
        assert sum(entry["count"] for entry in by_shard.values()) == len(streams)


class TestSharedMemoryFleet:
    """``shared=True``: one physical artifact copy across all workers."""

    def test_labels_identical_and_segments_swept(self, fleet_store):
        import os

        store, streams = fleet_store
        traffic = generate_label_traffic(
            streams,
            num_requests=12,
            profile=LoadProfile(batch_size_mix=((3, 0.5), (9, 0.5))),
            seed=13,
        )
        with ShardedFleetServer(
            store, num_workers=2, config=FAST_CONFIG, shard_capacity=2, shared=True
        ) as server:
            prefix = server.shared_prefix
            assert prefix is not None
            futures, _ = replay_traffic(server.submit, traffic)
            shared_labels = [future.result(timeout=120) for future in futures]
            if os.path.isdir("/dev/shm"):
                live = [
                    name
                    for name in os.listdir("/dev/shm")
                    if name.startswith(f"{prefix}-")
                ]
                assert live, "serving should have published shared bundles"
        if os.path.isdir("/dev/shm"):
            leftover = [
                name for name in os.listdir("/dev/shm") if name.startswith(f"{prefix}-")
            ]
            assert leftover == [], "stop() must leave no shared segments behind"
        with ShardedFleetServer(
            store, num_workers=2, config=FAST_CONFIG, shard_capacity=2, shared=False
        ) as server:
            futures, _ = replay_traffic(server.submit, traffic)
            private_labels = [future.result(timeout=120) for future in futures]
        assert label_tuples(shared_labels) == label_tuples(private_labels)

    def test_shared_prefix_is_store_deterministic(self, fleet_store, tmp_path):
        store, _ = fleet_store
        first = ShardedFleetServer(store, shared=True)
        second = ShardedFleetServer(store, shared=True)
        other = ShardedFleetServer(tmp_path, shared=True)
        assert first.shared_prefix == second.shared_prefix
        assert first.shared_prefix != other.shared_prefix
        assert ShardedFleetServer(store, shared=False).shared_prefix is None


def test_replay_traffic_honours_schedule_and_backpressure():
    submitted = []

    class FlakySubmit:
        def __init__(self):
            self.calls = 0

        def __call__(self, building_id, records):
            self.calls += 1
            if self.calls == 2:
                raise ShardOverloadedError(0, 1, 0.001)
            submitted.append((building_id, len(records)))
            return "ok"

    records = [SignalRecord("r0", {"aa": -40.0})]
    batch = RecordBatch.from_records(records, vocab=MacVocab())
    traffic = [
        type("T", (), {"offset_s": 0.0, "building_id": "b", "records": batch})(),
        type("T", (), {"offset_s": 0.01, "building_id": "b", "records": batch})(),
    ]
    start = time.perf_counter()
    results, rejected = replay_traffic(FlakySubmit(), traffic)
    assert results == ["ok", "ok"]
    assert rejected == 1
    assert time.perf_counter() - start >= 0.01
