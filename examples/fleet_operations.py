"""Live fleet operations: join, drain, replicated failover, autoscaling.

The runbook in ``docs/operations.md``, executed.  A replicated two-shard
fleet boots over a shared artifact store, and then every membership
operation an operator reaches for runs against it *while it serves*:

1. fit four small buildings and persist them through a write-through
   ``BuildingRegistry``,
2. boot a ``ShardedFleetServer`` (forked local workers, ``replication=2``)
   and serve a first wave of label traffic,
3. ``join_shard()`` a third worker under background load — the newcomer
   is warmed before it takes the ~1/N of buildings it steals,
4. SIGKILL the primary of a replicated building — heartbeat-miss
   failover promotes the warm follower, no refit, no cold load,
5. ``drain_shard()`` one shard gracefully — routing stops, buffered
   drift records and hot-model state hand off to the new owners,
6. print the merged fleet event timeline (``shard-joined``,
   ``shard-down``, ``shard-drained``, ...) and the membership counters.

Labels are asserted identical across every step: membership is an
operational concern, never a model concern.

Run it with::

    python examples/fleet_operations.py
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
from pathlib import Path

from repro.core import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import BuildingRegistry, LabelRequest, ShardedFleetServer
from repro.simulate import generate_single_building

CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=2,
    max_pairs_per_epoch=8_000,
    inference_passes=1,
    inference_sample_sizes=(20, 10),
)

BUILDINGS = ("hq", "mall", "lab", "depot")


def build_store(store_dir: Path) -> dict:
    """Fit four buildings into one store; return their unlabeled streams."""
    registry = BuildingRegistry(store_dir=store_dir, config=CONFIG, capacity=4)
    streams = {}
    for index, building_id in enumerate(BUILDINGS):
        labeled = generate_single_building(
            num_floors=3, samples_per_floor=25, seed=40 + index
        )
        train, stream = labeled.holdout_split(train_per_floor=18)
        anchor = train.pick_labeled_sample(floor=0)
        observed = train.strip_labels(keep_record_ids=[anchor.record_id])
        registry.register(building_id, observed, anchor_record_id=anchor.record_id)
        registry.get(building_id)  # fit + persist now, not at first request
        streams[building_id] = [record.without_floor() for record in stream]
    return streams


def make_requests(streams: dict, chunk: int = 5) -> list:
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


def label_map(responses) -> dict:
    # Keyed by request id: record ids are only unique within one building.
    return {
        response.request_id: tuple(
            (label.record_id, label.floor, label.confidence)
            for label in response.labels
        )
        for response in responses
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "models"
        print("== fitting 4 buildings into a shared store ...")
        streams = build_store(store)
        requests = make_requests(streams)

        fleet = ShardedFleetServer(
            store,
            num_workers=2,
            config=CONFIG,
            shard_capacity=4,
            replication=2,
            heartbeat_interval_s=0.2,
            heartbeat_miss_threshold=2,
        )
        with fleet:
            print(f"== booted {fleet.num_live_shards} replicated shards")
            baseline = label_map(fleet.serve(requests))
            num_labels = sum(len(labels) for labels in baseline.values())
            print(f"   served {len(requests)} requests, {num_labels} labels")

            # -- live join under load --------------------------------------
            served_during_join = {}
            pump = threading.Thread(
                target=lambda: served_during_join.update(
                    label_map(fleet.serve(requests))
                )
            )
            pump.start()
            entry = fleet.join_shard()
            pump.join()
            assert served_during_join == baseline, "labels moved across a join"
            print(
                f"== joined shard {entry!r} under load; "
                f"now {fleet.num_live_shards} shards; labels identical"
            )

            # -- replicated failover: SIGKILL a primary --------------------
            building = BUILDINGS[0]
            with fleet._ring_lock:
                primary, follower = fleet._ring.shards_for(building, 2)
            victim = fleet._shard_by_entry[primary]
            print(
                f"== SIGKILL shard {primary!r} "
                f"(primary of {building!r}; warm follower is {follower!r})"
            )
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                with fleet._ring_lock:
                    if primary not in fleet._ring.entries:
                        break
                time.sleep(0.05)
            assert fleet.shard_for(building) == follower
            assert label_map(fleet.serve(requests)) == baseline
            print(
                f"   failover promoted {follower!r}; "
                f"{fleet.num_live_shards} shards; labels identical"
            )

            # -- graceful drain -------------------------------------------
            drainee = fleet.shard_for(BUILDINGS[1])
            summary = fleet.drain_shard(drainee)
            assert label_map(fleet.serve(requests)) == baseline
            print(
                f"== drained shard {summary['entry']!r}: handed off "
                f"{summary['handed_off_records']} buffered records across "
                f"{summary['handed_off_buildings']} buildings; labels identical"
            )

            # -- an autoscaler dry-run ------------------------------------
            from repro.serving import AutoscalePolicy, Autoscaler

            autoscaler = Autoscaler(
                fleet,
                policy=AutoscalePolicy(min_shards=1, max_shards=4),
                interval_s=60.0,
            )
            decision = autoscaler.evaluate_once()
            print(
                f"== autoscaler decision on the idle fleet: {decision.action!r} "
                f"({decision.reason}; pressure={decision.pressure:.2f})"
            )

            # -- the operator's view --------------------------------------
            print("\n== merged fleet event timeline")
            for event in fleet.fleet_events(
                kinds=["shard-joined", "shard-down", "shard-drained"]
            ):
                print(
                    f"   {event.timestamp:12.3f}s  "
                    f"{event.kind:14s} {event.details_dict}"
                )
            exposition = fleet.render_prometheus()
            print("\n== membership counters")
            for line in exposition.splitlines():
                if line.startswith(
                    ("fleet_live_shards", "fleet_membership", "fleet_replica_fanout")
                ):
                    print(f"   {line}")
        print("\nfleet stopped cleanly")


if __name__ == "__main__":
    main()
