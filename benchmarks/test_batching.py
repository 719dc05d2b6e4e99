"""S2 — labeling micro-benchmark: the record-list path against RecordBatch.

``FrozenEncoder`` has one embedding kernel.  ``embed_batch`` feeds it a
columnar :class:`~repro.signals.batch.RecordBatch` (MAC ids translated to
encoder rows with one ``np.take``); ``embed_records`` columnarises a
``Sequence[SignalRecord]`` into the same kernel with dict probes at C speed.
This benchmark labels the same traffic both ways on one fitted building:

* both paths must produce byte-identical labels, confidences, and
  known-MAC fractions, and bit-identical embeddings underneath;
* ``record_vs_batch_ratio`` — record-path records/s over batch-path
  records/s in the same run — shows what the record-list columniser costs
  next to a prebuilt batch.  It is reported, not asserted here (a
  wall-clock ratio flakes on a busy 2-core host); ``perf_guard.py`` holds
  it against its committed floor.

Measured numbers are merged into ``BENCH_batching.json`` at the repository
root.
"""

import json
import time
from pathlib import Path

import numpy as np

from common import fast_config
from repro.core import FisOne
from repro.serving import OnlineFloorLabeler
from repro.signals.batch import RecordBatch
from repro.signals.record import SignalRecord
from repro.simulate import generate_single_building

BENCH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batching.json"

#: How many times the held-out records are replicated into the traffic set
#: (larger batches amortise per-call overhead and match fleet-sized bursts).
TRAFFIC_REPLICAS = 100

#: Timing rounds per path; the minimum filters scheduler/bandwidth noise.
ROUNDS = 7


def _best_seconds(func, *args) -> float:
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def test_batch_vs_record_labeling_throughput():
    labeled = generate_single_building(num_floors=3, samples_per_floor=45, seed=5)
    train, held_labeled = labeled.holdout_split(train_per_floor=30)
    anchor = train.pick_labeled_sample(floor=0)
    observed = train.strip_labels(keep_record_ids=[anchor.record_id])
    fitted = FisOne(fast_config()).fit(observed, anchor.record_id)
    labeler = OnlineFloorLabeler(fitted)

    base = [record.without_floor() for record in held_labeled]
    records = [
        SignalRecord(f"{record.record_id}-rep{replica}", dict(record.readings))
        for replica in range(TRAFFIC_REPLICAS)
        for record in base
    ]
    batch = RecordBatch.from_records(records)

    # Correctness first: both entry points must agree exactly — identical
    # labels, confidences, and known-MAC fractions, and bit-identical
    # embeddings underneath.
    record_labels = labeler.label(records)
    batch_labels = labeler.label(batch)
    assert record_labels == batch_labels
    record_embeddings, record_known = fitted.encoder.embed_records(records)
    batch_embeddings, batch_known = fitted.encoder.embed_batch(batch)
    assert np.array_equal(record_embeddings, batch_embeddings)
    assert np.array_equal(record_known, batch_known)

    record_seconds = _best_seconds(labeler.label, records)
    batch_seconds = _best_seconds(labeler.label, batch)
    record_rps = len(records) / record_seconds
    batch_rps = len(records) / batch_seconds
    ratio = batch_seconds / record_seconds

    payload = {}
    if BENCH_OUTPUT.is_file():
        payload = json.loads(BENCH_OUTPUT.read_text())
    payload.update(
        {
            "num_records": len(records),
            "num_readings": batch.num_readings,
            "record_path_records_per_second": record_rps,
            "batch_path_records_per_second": batch_rps,
            "record_vs_batch_ratio": ratio,
            "outputs_identical": True,
        }
    )
    BENCH_OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"\nOnline labeling of {len(records)} records ({batch.num_readings} readings):")
    print(f"  SignalRecord path: {record_rps:12.0f} records/s")
    print(f"  RecordBatch path : {batch_rps:12.0f} records/s")
    print(f"  record/batch ratio: {ratio:6.2f}   (written to {BENCH_OUTPUT.name})")
