"""Live fleet operations: dynamic membership, replication, autoscaling.

The contract under test: any membership change — a shard joining under
load, a planned drain with state handoff, a replicated primary dying —
is invisible to label traffic.  Labels stay bit-identical to a
single-process :class:`FleetServer` before, during, and after the change,
replicated failover promotes a *warm* follower (no refit, no cold load),
and the autoscaler grows and shrinks the fleet from its own pressure
signals within policy bounds.
"""

from __future__ import annotations

import os
import re
import signal
import threading
import time

import pytest

from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import (
    Autoscaler,
    AutoscalePolicy,
    BuildingRegistry,
    FleetServer,
    LabelRequest,
    ShardedFleetServer,
)
from repro.simulate import generate_single_building
from repro.simulate.fleet import LoadProfile, generate_label_traffic, replay_traffic
from repro.telemetry import (
    EVENT_SHARD_DRAINED,
    EVENT_SHARD_JOINED,
)

FAST_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=2,
    max_pairs_per_epoch=8_000,
    inference_passes=1,
    inference_sample_sizes=(20, 10),
)

BUILDING_IDS = ("fops-a", "fops-b", "fops-c", "fops-d")


@pytest.fixture(scope="module")
def ops_store(tmp_path_factory):
    """Four small fitted buildings persisted to one store, plus streams."""
    store = tmp_path_factory.mktemp("ops-store")
    registry = BuildingRegistry(store_dir=store, config=FAST_CONFIG, capacity=4)
    streams = {}
    for index, building_id in enumerate(BUILDING_IDS):
        labeled = generate_single_building(
            num_floors=3, samples_per_floor=25, seed=90 + index
        )
        train, stream = labeled.holdout_split(train_per_floor=18)
        anchor = train.pick_labeled_sample(floor=0)
        observed = train.strip_labels(keep_record_ids=[anchor.record_id])
        registry.register(building_id, observed, anchor_record_id=anchor.record_id)
        registry.get(building_id)
        streams[building_id] = [record.without_floor() for record in stream]
    return store, streams


def make_requests(streams, chunk=5):
    requests = []
    for building_id, stream in streams.items():
        for start in range(0, len(stream), chunk):
            block = stream[start : start + chunk]
            if block:
                requests.append(
                    LabelRequest(
                        request_id=f"req-{len(requests)}",
                        building_id=building_id,
                        records=tuple(block),
                    )
                )
    return requests


def label_tuples(responses):
    return [
        (label.record_id, label.floor, label.confidence, label.known_mac_fraction)
        for response in responses
        for label in response.labels
    ]


def serve_sequentially(submit, requests):
    """One request at a time: pins batch composition for bit-identity."""
    return [submit(request).result(timeout=120) for request in requests]


def fleet_submit(fleet):
    return lambda request: fleet.submit(
        request.building_id, request.records, request.request_id
    )


@pytest.fixture(scope="module")
def reference_labels(ops_store):
    """Single-process FleetServer labels: the bit-identity ground truth."""
    store, streams = ops_store
    registry = BuildingRegistry(store_dir=store, config=FAST_CONFIG)
    with FleetServer(registry) as server:
        responses = serve_sequentially(
            lambda request: server.submit(request.building_id, request.records),
            make_requests(streams),
        )
    return label_tuples(responses)


def wait_until(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestLiveJoin:
    def test_join_under_load_stays_bit_identical(self, ops_store, reference_labels):
        store, streams = ops_store
        requests = make_requests(streams)
        with ShardedFleetServer(
            store,
            num_workers=2,
            config=FAST_CONFIG,
            shard_capacity=4,
        ) as fleet:
            assert label_tuples(
                serve_sequentially(fleet_submit(fleet), requests)
            ) == reference_labels

            # Join a third shard while traffic is in flight.  Sequential
            # submits pin batch composition, so even the requests that land
            # mid-join must come back bit-identical.
            background = {}

            def pump():
                background["responses"] = serve_sequentially(
                    fleet_submit(fleet), requests
                )

            pump_thread = threading.Thread(target=pump)
            pump_thread.start()
            entry = fleet.join_shard(timeout_s=120.0)
            pump_thread.join(timeout=300)
            assert not pump_thread.is_alive()

            assert entry == 2
            with fleet._ring_lock:
                assert set(fleet._ring.entries) == {0, 1, 2}
            assert label_tuples(background["responses"]) == reference_labels
            joined = [
                e for e in fleet.fleet_events() if e.kind == EVENT_SHARD_JOINED
            ]
            assert joined and joined[0].details_dict["entry"] == "2"

            # After the join the grown fleet still labels bit-identically,
            # and the newcomer actually takes traffic for its buildings.
            assert label_tuples(
                serve_sequentially(fleet_submit(fleet), requests)
            ) == reference_labels
            owned_by_new = [
                b for b in BUILDING_IDS if fleet.shard_for(b) == entry
            ]
            if owned_by_new:  # ring-dependent, but warmth must hold when so
                stats = fleet.stats()
                new_shard = [s for s in stats.shards if s.shard == 2]
                assert new_shard and new_shard[0].server.num_requests > 0

    def test_join_validates_transport_and_state(self, ops_store):
        store, _ = ops_store
        fleet = ShardedFleetServer(store, num_workers=1, config=FAST_CONFIG)
        with pytest.raises(RuntimeError, match="not running"):
            fleet.join_shard()
        # A default-constructed fleet owns its shards, so it can grow.
        with fleet:
            assert fleet.join_shard(timeout_s=120.0) == 1
            with fleet._ring_lock:
                assert set(fleet._ring.entries) == {0, 1}
            assert fleet.running


class TestDrain:
    def test_drain_hands_off_state_and_stays_bit_identical(
        self, ops_store, reference_labels
    ):
        store, streams = ops_store
        requests = make_requests(streams)
        with ShardedFleetServer(
            store,
            num_workers=3,
            config=FAST_CONFIG,
            shard_capacity=4,
        ) as fleet:
            assert label_tuples(
                serve_sequentially(fleet_submit(fleet), requests)
            ) == reference_labels
            # Drain the owner of a served building: its registry holds hot
            # models and buffered drift records, all of which must move.
            entry = fleet.shard_for(BUILDING_IDS[0])
            summary = fleet.drain_shard(entry, timeout_s=60.0)
            assert summary["entry"] == entry
            assert summary["handed_off_buildings"] > 0
            assert summary["handed_off_records"] > 0
            with fleet._ring_lock:
                assert entry not in fleet._ring.entries
                assert len(fleet._ring.entries) == 2
            drained = [
                e for e in fleet.fleet_events() if e.kind == EVENT_SHARD_DRAINED
            ]
            assert drained and drained[0].details_dict["handed_off"] > 0
            assert label_tuples(
                serve_sequentially(fleet_submit(fleet), requests)
            ) == reference_labels

    def test_sigkill_during_drain_still_completes(self, ops_store, reference_labels):
        store, streams = ops_store
        requests = make_requests(streams)
        with ShardedFleetServer(
            store,
            num_workers=3,
            config=FAST_CONFIG,
            shard_capacity=4,
            heartbeat_interval_s=0.1,
            heartbeat_miss_threshold=2,
        ) as fleet:
            fleet.serve(requests[:3])
            victim = fleet._shards[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            # The drain of an already-dead shard hands nothing off but must
            # still complete the removal and leave the fleet serving.
            summary = fleet.drain_shard(victim.entry, timeout_s=30.0)
            assert summary["handed_off_records"] == 0
            with fleet._ring_lock:
                assert victim.entry not in fleet._ring.entries
            assert fleet.running
            assert label_tuples(
                serve_sequentially(fleet_submit(fleet), requests)
            ) == reference_labels

    def test_drain_refuses_last_shard_and_unknown_entries(self, ops_store):
        store, streams = ops_store
        with ShardedFleetServer(
            store, num_workers=1, config=FAST_CONFIG
        ) as fleet:
            with pytest.raises(ValueError, match="last shard"):
                fleet.drain_shard(0)
            with pytest.raises(ValueError, match="not part of the fleet"):
                fleet.drain_shard(99)
            assert fleet.running


class TestReplication:
    def test_replicated_failover_promotes_warm_follower_without_refit(
        self, ops_store, reference_labels
    ):
        store, streams = ops_store
        requests = make_requests(streams)
        with ShardedFleetServer(
            store,
            num_workers=3,
            config=FAST_CONFIG,
            shard_capacity=4,
            replication=2,
            heartbeat_interval_s=0.1,
            heartbeat_miss_threshold=2,
        ) as fleet:
            assert label_tuples(
                serve_sequentially(fleet_submit(fleet), requests)
            ) == reference_labels
            building = BUILDING_IDS[0]
            with fleet._ring_lock:
                primary, follower = fleet._ring.shards_for(building, 2)
            victim = fleet._shard_by_entry[primary]
            os.kill(victim.process.pid, signal.SIGKILL)
            assert wait_until(
                lambda: primary not in fleet._ring.entries
            ), "dead primary never left the ring"
            # Ring geometry: the follower IS the new primary.
            assert fleet.shard_for(building) == follower

            # Let the post-failover follower re-warm settle (two identical
            # snapshots 0.3s apart), then pin the per-shard load counters.
            def loads():
                return {
                    s.shard: s.registry.loads for s in fleet.stats().shards
                }

            def settled():
                first = loads()
                time.sleep(0.3)
                return first == loads()

            assert wait_until(settled, timeout_s=15.0, interval_s=0.1)
            before = loads()
            settled = serve_sequentially(fleet_submit(fleet), requests)
            assert label_tuples(settled) == reference_labels
            after_stats = fleet.stats()
            after = {s.shard: s.registry.loads for s in after_stats.shards}
            # Warm-follower promotion: the full post-failover pass paid no
            # cold loads and — the acceptance criterion — no refits.
            assert after == before
            assert all(s.registry.fits == 0 for s in after_stats.shards)

    def test_replication_validates_bounds(self, ops_store):
        store, _ = ops_store
        with pytest.raises(ValueError, match="replication"):
            ShardedFleetServer(store, num_workers=2, replication=3)
        with pytest.raises(ValueError, match="replication must be >= 1"):
            ShardedFleetServer(store, num_workers=2, replication=0)

    def test_read_fanout_serves_from_follower_under_overload(self, ops_store):
        store, streams = ops_store
        building = BUILDING_IDS[0]
        stream = streams[building]
        requests = [
            LabelRequest(
                request_id=f"hot-{i}",
                building_id=building,
                records=tuple(stream[start : start + 2]),
            )
            for i, start in enumerate(range(0, len(stream) - 1, 2))
        ]
        with ShardedFleetServer(
            store,
            num_workers=2,
            config=FAST_CONFIG,
            shard_capacity=4,
            replication=2,
            read_fanout=True,
            max_inflight=1,
        ) as fleet:
            responses = fleet.serve(requests)
            assert [r.request_id for r in responses] == [
                r.request_id for r in requests
            ]
            stats = fleet.stats()
            served = {s.shard: s.server.num_requests for s in stats.shards}
            exposition = fleet.render_prometheus()
        # A single hot building overran its primary's one-slot window, so
        # the follower took overflow traffic: both shards served it.
        assert len(served) == 2 and all(count > 0 for count in served.values())
        fanout = re.search(
            r"^fleet_replica_fanout_total(?:\{[^}]*\})? (\d+)",
            exposition,
            re.MULTILINE,
        )
        assert fanout is not None and int(fanout.group(1)) > 0


class TestStatsRace:
    def test_stats_survive_concurrent_membership_changes(self, ops_store):
        """Regression: stats()/latency_summary() raced ring resizes.

        A background thread hammers every aggregation entry point while
        the main thread kills, joins, and drains shards; no call may leak
        an exception out of the observability path.
        """
        store, streams = ops_store
        requests = make_requests(streams)
        errors = []
        stop = threading.Event()
        with ShardedFleetServer(
            store,
            num_workers=3,
            config=FAST_CONFIG,
            shard_capacity=4,
            heartbeat_interval_s=0.1,
            heartbeat_miss_threshold=2,
        ) as fleet:
            fleet.serve(requests[:4])

            def hammer():
                while not stop.is_set():
                    try:
                        fleet.stats(timeout_s=10.0)
                        fleet.latency_summary(timeout_s=10.0)
                        fleet.pressure_snapshot()
                    except Exception as error:  # noqa: BLE001 - the assertion
                        errors.append(error)
                        return
                    time.sleep(0.002)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                victim = fleet._shards[0]
                os.kill(victim.process.pid, signal.SIGKILL)
                wait_until(lambda: victim.entry not in fleet._ring.entries)
                entry = fleet.join_shard(timeout_s=120.0)
                fleet.drain_shard(entry, timeout_s=60.0)
                fleet.serve(requests[:2])
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []


class TestAutoscaler:
    def test_grow_and_shrink_under_load_generator(self, ops_store):
        store, streams = ops_store
        traffic = generate_label_traffic(
            streams,
            num_requests=60,
            profile=LoadProfile(arrival_rate_hz=None),
            seed=7,
        )
        policy = AutoscalePolicy(
            min_shards=1,
            max_shards=2,
            scale_up_pressure=0.5,
            scale_down_pressure=0.1,
            scale_up_cooldown_s=0.0,
            scale_down_cooldown_s=0.0,
        )
        with ShardedFleetServer(
            store,
            num_workers=1,
            config=FAST_CONFIG,
            shard_capacity=4,
            max_inflight=2,
        ) as fleet:
            autoscaler = Autoscaler(fleet, policy=policy, interval_s=60.0, seed=0)
            replayed = {}

            def pump():
                replayed["futures"], replayed["rejected"] = replay_traffic(
                    fleet.submit, traffic
                )

            thread = threading.Thread(target=pump)
            thread.start()
            try:
                assert wait_until(
                    lambda: autoscaler.evaluate_once().action == "grow"
                    or autoscaler.stats.grows > 0,
                    timeout_s=120.0,
                    interval_s=0.01,
                ), "saturating load never triggered a grow"
                assert fleet.num_live_shards == 2
            finally:
                thread.join(timeout=300)
            assert not thread.is_alive()
            for future in replayed["futures"]:
                future.result(timeout=120)

            # Traffic is gone: pressure decays to zero and the autoscaler
            # shrinks back to the floor.
            assert wait_until(
                lambda: autoscaler.evaluate_once().action == "shrink"
                or autoscaler.stats.shrinks > 0,
                timeout_s=60.0,
                interval_s=0.05,
            ), "idle fleet never triggered a shrink"
            assert fleet.num_live_shards == 1

            stats = autoscaler.stats
            assert stats.grows >= 1 and stats.shrinks >= 1
            kinds = {event.kind for event in fleet.fleet_events()}
            assert EVENT_SHARD_JOINED in kinds
            assert EVENT_SHARD_DRAINED in kinds

    def test_policy_validation(self, ops_store):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_shards=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_shards=3, max_shards=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_down_pressure=0.9, scale_up_pressure=0.8)
        with pytest.raises(ValueError):
            AutoscalePolicy(p99_budget_s=0.0)

    def test_daemon_lifecycle_and_hold_reasons(self, ops_store):
        store, _ = ops_store
        with ShardedFleetServer(
            store, num_workers=1, config=FAST_CONFIG
        ) as fleet:
            autoscaler = Autoscaler(
                fleet,
                policy=AutoscalePolicy(min_shards=1, max_shards=1),
                interval_s=0.05,
                seed=0,
            )
            with autoscaler:
                assert autoscaler.is_running
                decision = autoscaler.evaluate_once()
            assert not autoscaler.is_running
            assert decision.action == "hold"
            assert decision.num_shards == 1
            assert autoscaler.stats.ticks >= 1
