"""Stress regression: stats and drift counters under concurrent submit/refresh.

Many threads push label traffic through one :class:`FleetServer` while a
refresher thread sweeps ``refresh_drifted()`` (with thresholds tuned so
refreshes actually fire) and a prober thread hammers ``stats()``.  The
assertions pin the invariants that torn reads or lost updates would break:

* every snapshot ``stats()`` returns is internally consistent (finite
  throughput, non-negative counters) and *monotonic* across snapshots —
  counters and the elapsed clock never run backwards while serving;
* after the storm, the server counted exactly the submitted traffic (no
  lost updates under the stats lock);
* the building's :class:`DriftMonitor` observed exactly one label per
  record (``num_observed`` survives the window resets refreshes trigger);
* the registry's cold fit happened exactly once (single-flight) and every
  registry snapshot stays consistent while refreshes bump generations.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import (
    BuildingRegistry,
    DriftThresholds,
    FleetServer,
    RefreshPolicy,
)
from repro.signals.record import SignalRecord
from repro.simulate import generate_single_building

FAST_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=2,
    max_pairs_per_epoch=8_000,
    inference_passes=1,
    inference_sample_sizes=(20, 10),
)

NUM_THREADS = 6
BATCHES_PER_THREAD = 12
RECORDS_PER_BATCH = 8


def test_stats_and_monitor_survive_concurrent_submit_and_refresh(tmp_path):
    labeled = generate_single_building(num_floors=3, samples_per_floor=25, seed=17)
    train, stream = labeled.holdout_split(train_per_floor=18)
    anchor = train.pick_labeled_sample(floor=0)
    observed = train.strip_labels(keep_record_ids=[anchor.record_id])

    policy = RefreshPolicy(
        thresholds=DriftThresholds(min_records=16, max_unknown_mac_fraction=0.05),
        min_new_records=8,
        fine_tune_epochs=1,
    )
    registry = BuildingRegistry(
        store_dir=tmp_path / "store", config=FAST_CONFIG, refresh_policy=policy
    )
    registry.register("stress", observed, anchor_record_id=anchor.record_id)

    base = [record.without_floor() for record in stream]
    # Every record carries alien MACs, so the unknown fraction stays over
    # the threshold and the refresher genuinely refreshes mid-traffic.
    def make_batch(thread: int, batch: int):
        return [
            SignalRecord(
                f"t{thread}-b{batch}-r{i}",
                {
                    **base[(thread + batch + i) % len(base)].readings,
                    f"alien:{thread}:{batch}:0": -55.0,
                    f"alien:{thread}:{batch}:1": -60.0,
                    f"alien:{thread}:{batch}:2": -65.0,
                },
            )
            for i in range(RECORDS_PER_BATCH)
        ]

    errors = []
    stop_probing = threading.Event()

    with FleetServer(registry, num_workers=4) as server:
        snapshots = []

        def probe():
            previous = None
            while not stop_probing.is_set():
                stats = server.stats()
                registry_stats = registry.stats
                try:
                    assert stats.num_records >= 0
                    assert np.isfinite(stats.records_per_second)
                    assert stats.records_per_second >= 0.0
                    if previous is not None:
                        assert stats.num_records >= previous.num_records
                        assert stats.num_requests >= previous.num_requests
                        assert stats.num_batches >= previous.num_batches
                        assert stats.elapsed_s >= previous.elapsed_s
                    assert registry_stats.fits <= 1
                    assert registry_stats.misses <= 1
                except AssertionError as error:  # pragma: no cover - failure path
                    errors.append(error)
                    return
                previous = stats
                snapshots.append(stats)

        def refresher():
            # Sweep for as long as the labelers are running, so refreshes
            # genuinely interleave with the traffic instead of finishing
            # before the first batch lands.
            while not stop_probing.is_set():
                try:
                    server.refresh_drifted(["stress"])
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)
                    return
                stop_probing.wait(0.02)

        def labeler(thread: int):
            for batch in range(BATCHES_PER_THREAD):
                records = make_batch(thread, batch)
                try:
                    response = server.submit("stress", records).result(timeout=240)
                    assert len(response.labels) == len(records)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)
                    return

        threads = [
            threading.Thread(target=labeler, args=(index,))
            for index in range(NUM_THREADS)
        ]
        prober = threading.Thread(target=probe)
        sweeper = threading.Thread(target=refresher)
        prober.start()
        sweeper.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_probing.set()
        sweeper.join()
        prober.join()

        assert not errors, f"concurrent serving raised/violated: {errors[:3]}"
        assert snapshots, "the stats prober never ran"

        final = server.stats()

    total_records = NUM_THREADS * BATCHES_PER_THREAD * RECORDS_PER_BATCH
    total_requests = NUM_THREADS * BATCHES_PER_THREAD
    # No lost updates: the counters account for exactly the submitted traffic.
    assert final.num_records == total_records
    assert final.num_requests == total_requests
    assert 1 <= final.num_batches <= total_requests

    # The monitor saw one label per record; refresh-triggered window resets
    # must not eat observations (num_observed is reset-proof by contract).
    monitor = registry._monitor("stress")
    assert monitor.num_observed == total_records
    assert len(monitor) <= policy.monitor_window

    registry_stats = registry.stats
    assert registry_stats.fits == 1  # single-flight cold fit
    assert registry_stats.refreshes >= 1  # the sweep genuinely refreshed
    # stats() after stop() reports the frozen serving window.
    assert final.elapsed_s > 0
    assert final.records_per_second > 0
