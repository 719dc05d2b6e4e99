"""Serving a building fleet: fit once, persist, then label signals online.

This example walks the full serving lifecycle across three simulated
buildings:

1. simulate three buildings and split each into a crowdsourced training
   survey and a stream of later, unseen signals,
2. fit one FIS-ONE model per building through a BuildingRegistry that
   persists every fit as a versioned artifact directory,
3. throw the artifacts' in-memory models away and open a *fresh* registry
   on the same store — models now load from disk, no refit,
4. drive concurrent label requests through the batching FleetServer —
   submitted as columnar :class:`~repro.signals.batch.RecordBatch` payloads
   (one shared MacVocab per building), the array-native fast path — and
   compare online predictions with the withheld ground truth.

Run it with::

    python examples/serving_fleet.py

With ``--workers N`` the serving step runs through the multi-process
:class:`~repro.serving.sharded.ShardedFleetServer` instead: buildings are
consistent-hash partitioned across N worker processes, each of which
mmap-loads its share of the store zero-copy, labels travel as binary
frames over a socketpair per worker, and a heartbeat thread fails a dead
shard over by resizing the consistent-hash ring (the default,
``--workers 0``, serves in-process)::

    python examples/serving_fleet.py --workers 2

With ``--metrics-port P`` a stdlib ``/metrics`` endpoint serves the live
Prometheus exposition while requests are in flight (fleet-merged across the
worker processes in sharded mode; ``P=0`` picks a free port)::

    python examples/serving_fleet.py --workers 2 --metrics-port 9100

The same frames also cross real process boundaries over TCP.  ``--listen`` turns
one invocation into a standalone shard server (it fits the same simulated
fleet, then serves it over TCP until interrupted), and ``--connect``
points a dispatcher at one or more already-listening shards::

    python examples/serving_fleet.py --listen 127.0.0.1:7071   # terminal 1
    python examples/serving_fleet.py --listen 127.0.0.1:7072   # terminal 2
    python examples/serving_fleet.py --connect 127.0.0.1:7071 \\
        --connect 127.0.0.1:7072                               # terminal 3
"""

from __future__ import annotations

import argparse
import tempfile
import time
import urllib.request

from repro.core import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import (
    BuildingRegistry,
    FleetServer,
    LabelRequest,
    ShardedFleetServer,
    ShardServer,
    ShardSpec,
)
from repro.signals import MacVocab, RecordBatch
from repro.simulate import generate_single_building
from repro.telemetry import MetricsHTTPServer

#: A reduced configuration so the example fits three buildings in seconds.
CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=3,
    max_pairs_per_epoch=15_000,
    inference_passes=2,
    inference_sample_sizes=(30, 15),
)


def start_metrics_endpoint(port, render):
    """Serve ``render`` at ``/metrics`` when a port was asked for."""
    if port is None:
        return None
    endpoint = MetricsHTTPServer(render, port=port).start()
    print(f"\nmetrics endpoint up at {endpoint.url}")
    return endpoint


def scrape_and_stop(endpoint) -> None:
    """One scrape through the real HTTP path, then release the port."""
    if endpoint is None:
        return
    with urllib.request.urlopen(endpoint.url, timeout=10) as response:
        text = response.read().decode("utf-8")
    print("scraped /metrics (excerpt):")
    for line in text.splitlines():
        if line.startswith(
            ("fleet_requests_total", "fleet_records_total", "fleet_inflight_requests")
        ):
            print(f"  {line}")
    endpoint.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for a ShardedFleetServer (0 = in-process "
        "FleetServer, the default)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="P",
        help="serve the live Prometheus exposition at "
        "http://127.0.0.1:P/metrics while requests run (0 picks a free port)",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="run as a standalone TCP shard server on this address instead "
        "of a dispatcher (fit the simulated fleet, then serve until Ctrl-C)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        action="append",
        default=None,
        help="dispatch to an already-listening shard server (repeat for "
        "several shards)",
    )
    args = parser.parse_args()

    # 1. Three buildings; per building, train on 30 samples/floor and keep
    #    the remaining records as the later "online" traffic.
    fleet = {}
    for index, (num_floors, seed) in enumerate([(3, 21), (4, 11), (5, 7)]):
        labeled = generate_single_building(
            num_floors=num_floors, samples_per_floor=40, seed=seed
        )
        train, stream = labeled.holdout_split(train_per_floor=30)
        fleet[f"building-{index}"] = (train, stream)
        print(
            f"building-{index}: {num_floors} floors, {len(train)} survey samples, "
            f"{len(stream)} online signals held back"
        )

    with tempfile.TemporaryDirectory(prefix="fisone-models-") as store:
        # 2. Fit (lazily) through a write-through registry.  Only the single
        #    anchor label per building is used, as in the paper.
        registry = BuildingRegistry(store_dir=store, capacity=2, config=CONFIG)
        for building_id, (train, _) in fleet.items():
            registry.register(building_id, train)
        for building_id in fleet:
            fitted = registry.get(building_id)
            print(f"fitted {building_id}: final RF-GNN loss "
                  f"{fitted.result.training_history.final_loss:.3f}")
        print(f"registry after fitting: {registry.stats}")

        if args.listen is not None:
            # Standalone shard mode: this process *is* one TCP shard.  A
            # dispatcher started with --connect pointing here drives label
            # traffic over the wire; the simulated fit is deterministic, so
            # every listener serves bit-identical models.
            host, _, port = args.listen.rpartition(":")
            server = ShardServer(
                ShardSpec(store, config=CONFIG, capacity=2), host=host, port=int(port)
            ).start()
            bound_host, bound_port = server.address
            print(f"\nshard server listening on {bound_host}:{bound_port} "
                  "(Ctrl-C to stop)")
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
            finally:
                server.stop()
            return

        # 3. A fresh registry on the same store: every model loads from its
        #    artifact directory, nothing refits.  (In sharded mode each
        #    worker process builds its own registry over the store instead.)
        serving_registry = BuildingRegistry(store_dir=store, capacity=2, config=CONFIG)

        # 4. Serve the held-back signals concurrently, 5 records per request,
        #    as columnar RecordBatch payloads.  One MacVocab per building
        #    keeps MAC ids stable across its requests, so the server can
        #    coalesce concurrent batches by pure array concatenation and the
        #    frozen encoder translates them with one np.take per batch.
        requests = []
        for building_id, (_, stream) in fleet.items():
            vocab = MacVocab()
            for start in range(0, len(stream), 5):
                chunk = stream[start : start + 5]
                requests.append(
                    LabelRequest(
                        request_id=f"{building_id}/req-{start // 5}",
                        building_id=building_id,
                        records=RecordBatch.from_records(
                            [record.without_floor() for record in chunk],
                            vocab=vocab,
                        ),
                    )
                )
        if args.workers > 0 or args.connect:
            if args.connect:
                print(f"\ndispatching over TCP to {len(args.connect)} remote "
                      f"shard server(s): {', '.join(args.connect)}")
            else:
                print(f"\nserving through {args.workers} sharded worker "
                      "processes (consistent-hash routing, zero-copy mmap "
                      "loads)")
            with ShardedFleetServer(
                store, num_workers=max(args.workers, 1), config=CONFIG,
                shard_capacity=2, shard_addresses=args.connect,
            ) as sharded:
                for building_id in fleet:
                    print(f"  {building_id} -> shard {sharded.shard_for(building_id)}")
                endpoint = start_metrics_endpoint(
                    args.metrics_port, sharded.render_prometheus
                )
                responses = sharded.serve(requests)
                fleet_stats = sharded.stats()
                scrape_and_stop(endpoint)
            stats = fleet_stats  # FleetWideStats shares the printed fields
            loads = sum(shard.registry.loads for shard in fleet_stats.shards)
            refits = sum(shard.registry.fits for shard in fleet_stats.shards)
        else:
            with FleetServer(serving_registry, num_workers=4) as server:
                endpoint = start_metrics_endpoint(
                    args.metrics_port, server.render_prometheus
                )
                responses = server.serve(requests)
                stats = server.stats()
                scrape_and_stop(endpoint)
            loads = serving_registry.stats.loads
            refits = serving_registry.stats.fits

        truth = {
            record.record_id: record.floor
            for _, (_, stream) in fleet.items()
            for record in stream
        }
        correct = sum(
            int(truth[label.record_id] == label.floor)
            for response in responses
            for label in response.labels
        )
        total = sum(len(response.labels) for response in responses)
        print(f"\nserved {stats.num_requests} requests "
              f"({stats.num_records} records) in {stats.elapsed_s:.2f}s "
              f"-> {stats.records_per_second:.0f} records/s, "
              f"{stats.num_batches} per-building batches")
        print(f"loads from disk: {loads}, refits: {refits}")
        print(f"online floor accuracy vs withheld ground truth: {correct / total:.3f}")


if __name__ == "__main__":
    main()
