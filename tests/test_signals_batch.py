"""Unit tests for the columnar RecordBatch core and its integrations.

Covers construction and validation, slicing/concat, the io loaders'
batch-native paths, vectorised graph assembly from batch columns
(``CSRGraph.from_batch`` / ``BipartiteGraph.add_batch``), and the serving
layer carrying batches end-to-end (labeler, registry buffer, fleet server
coalescing, refresh).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import FisOne, FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import CSRGraph
from repro.serving import BuildingRegistry, FleetServer, OnlineFloorLabeler
from repro.signals.batch import MacVocab, RecordBatch
from repro.signals.io import (
    batch_from_json,
    dataset_from_json,
    dataset_to_json,
    load_batch_csv,
    load_dataset_csv,
    save_dataset_csv,
)
from repro.signals.record import InvalidRecordError, SignalRecord
from repro.simulate import generate_building_batch, generate_single_building
from repro.simulate.generators import office_building_config

FAST_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(8, 4)),
    num_epochs=2,
    max_pairs_per_epoch=6_000,
    inference_passes=1,
    inference_sample_sizes=(12, 6),
    seed=0,
)


def _records():
    return [
        SignalRecord(
            "r1",
            {"aa": -50.0, "bb": -60.0},
            floor=1,
            position=(1.0, 2.0),
            device_id="dev1",
            timestamp=3.0,
        ),
        SignalRecord("r2", {"bb": -70.0}),
        SignalRecord("r3", {"cc": -80.0, "aa": -40.0, "dd": -90.0}),
    ]


@pytest.fixture(scope="module")
def fitted():
    labeled = generate_single_building(num_floors=3, samples_per_floor=18, seed=3)
    anchor = labeled.pick_labeled_sample(floor=0)
    observed = labeled.strip_labels(keep_record_ids=[anchor.record_id])
    return FisOne(FAST_CONFIG).fit(observed, anchor.record_id)


@pytest.fixture(scope="module")
def traffic():
    # Fresh ids: the simulator reuses record-id patterns across seeds, and
    # ids colliding with the fitted model's training records would be
    # (correctly) skipped by the registry's refresh buffer.
    labeled = generate_single_building(num_floors=3, samples_per_floor=18, seed=4)
    return [
        SignalRecord(f"traffic-{index}", dict(record.readings))
        for index, record in enumerate(labeled)
    ]


class TestMacVocab:
    def test_interning_is_idempotent_and_ordered(self):
        vocab = MacVocab()
        assert vocab.intern("aa") == 0
        assert vocab.intern("bb") == 1
        assert vocab.intern("aa") == 0
        assert vocab.macs == ["aa", "bb"]
        assert "aa" in vocab and "cc" not in vocab
        assert vocab.mac_of(1) == "bb"

    def test_intern_many_returns_aligned_ids(self):
        vocab = MacVocab(["aa"])
        ids = vocab.intern_many(["bb", "aa", "cc", "bb"])
        assert ids.tolist() == [1, 0, 2, 1]

    def test_empty_mac_rejected(self):
        with pytest.raises(InvalidRecordError):
            MacVocab().intern("")
        with pytest.raises(InvalidRecordError):
            MacVocab().intern_many(["aa", ""])

    def test_empty_vocab_instance_is_still_used(self):
        vocab = MacVocab()
        batch = RecordBatch.from_records(_records(), vocab=vocab)
        assert batch.vocab is vocab
        assert len(vocab) == 4


class TestRecordBatch:
    def test_columns_and_counts(self):
        batch = RecordBatch.from_records(_records())
        assert len(batch) == 3
        assert batch.num_readings == 6
        assert batch.reading_counts.tolist() == [2, 1, 3]
        assert batch.indptr.tolist() == [0, 2, 3, 6]
        assert batch.floor_of(0) == 1 and batch.floor_of(1) is None
        assert batch.readings_of(2) == {"cc": -80.0, "aa": -40.0, "dd": -90.0}

    def test_arrays_are_frozen(self):
        batch = RecordBatch.from_records(_records())
        with pytest.raises(ValueError):
            batch.rss[0] = -1.0
        with pytest.raises(ValueError):
            batch.indptr[0] = 1

    def test_getitem_int_and_slice(self):
        records = _records()
        batch = RecordBatch.from_records(records)
        assert batch[1] == records[1]
        assert batch[1:].to_records() == records[1:]
        assert list(batch) == records

    def test_negative_indices_are_sequence_like(self):
        records = _records()
        batch = RecordBatch.from_records(records)
        assert batch[-1] == records[-1]
        assert batch[-2] == records[-2]
        assert batch.readings_of(-3) == dict(records[0].readings)
        assert batch.floor_of(-3) == records[0].floor
        with pytest.raises(IndexError):
            batch.record(3)
        with pytest.raises(IndexError):
            batch.record(-4)

    def test_concat_requires_shared_vocab(self):
        vocab = MacVocab()
        first = RecordBatch.from_records(_records()[:1], vocab=vocab)
        second = RecordBatch.from_records(_records()[1:], vocab=vocab)
        merged = RecordBatch.concat([first, second])
        assert merged.to_records() == _records()
        foreign = RecordBatch.from_records(_records()[1:])
        with pytest.raises(ValueError, match="vocabular"):
            RecordBatch.concat([first, foreign])
        with pytest.raises(ValueError):
            RecordBatch.concat([])

    def test_validation_errors(self):
        with pytest.raises(InvalidRecordError, match="at least one reading"):
            RecordBatch.from_json_payload([{"record_id": "r1", "readings": {}}])
        with pytest.raises(InvalidRecordError, match="outside"):
            RecordBatch.from_json_payload(
                [{"record_id": "r1", "readings": {"aa": -150.0}}]
            )
        with pytest.raises(InvalidRecordError):
            RecordBatch.from_json_payload(
                [{"record_id": "", "readings": {"aa": -50.0}}]
            )

    def test_nan_rss_rejected(self):
        # json.loads accepts bare NaN, so the batch validator must reject it
        # the way SignalRecord always has (a NaN would otherwise sail
        # through every downstream min()/comparison guard).
        with pytest.raises(InvalidRecordError, match="outside"):
            RecordBatch.from_json_payload(
                [{"record_id": "r1", "readings": {"aa": float("nan")}}]
            )

    def test_negative_floor_rejected_not_aliased(self):
        # floor=-1 must fail loudly, not silently alias the NO_FLOOR
        # sentinel (SignalRecord contract).
        with pytest.raises(InvalidRecordError, match="floor index"):
            RecordBatch.from_json_payload(
                [{"record_id": "r1", "readings": {"aa": -50.0}, "floor": -1}]
            )
        rows = [
            {"record_id": "r1", "mac": "aa", "rss": "-50.0", "floor": "-1",
             "x": "", "y": "", "device_id": "", "timestamp": ""}
        ]
        with pytest.raises(InvalidRecordError, match="floor index"):
            RecordBatch.from_csv_rows(rows)

    def test_empty_batch(self):
        batch = RecordBatch.from_records([])
        assert len(batch) == 0
        assert batch.to_records() == []
        assert batch.take([]).num_readings == 0


class TestBatchIo:
    def test_batch_from_json_matches_dataset_loader(self, traffic):
        labeled = generate_single_building(num_floors=2, samples_per_floor=10, seed=9)
        payload = dataset_to_json(labeled)
        batch = batch_from_json(payload)
        dataset = dataset_from_json(payload)
        assert batch.to_records() == list(dataset.records)

    def test_batch_from_json_rejects_bad_version(self):
        with pytest.raises(ValueError, match="format version"):
            batch_from_json({"format_version": 99, "records": []})

    def test_load_batch_csv_round_trip(self, tmp_path):
        labeled = generate_single_building(num_floors=2, samples_per_floor=8, seed=2)
        path = tmp_path / "building.csv"
        save_dataset_csv(labeled, path)
        batch = load_batch_csv(path)
        dataset = load_dataset_csv(path)
        assert batch.to_records() == list(dataset.records)
        assert batch.to_records() == list(labeled.records)


class TestGraphFromBatch:
    def test_from_batch_identical_to_from_dataset(self):
        labeled = generate_single_building(num_floors=3, samples_per_floor=12, seed=6)
        from_dataset = CSRGraph.from_dataset(labeled)
        from_batch = CSRGraph.from_batch(labeled.to_batch())
        assert np.array_equal(from_dataset.indptr, from_batch.indptr)
        assert np.array_equal(from_dataset.indices, from_batch.indices)
        assert np.array_equal(from_dataset.weights, from_batch.weights)
        assert np.array_equal(from_dataset.kinds, from_batch.kinds)
        assert from_dataset.keys.tolist() == from_batch.keys.tolist()

    def test_from_batch_rejects_empty(self):
        with pytest.raises(ValueError, match="empty batch"):
            CSRGraph.from_batch(RecordBatch.from_records([]))

    def test_add_batch_identical_to_add_record(self):
        records = _records()
        by_record = BipartiteGraph()
        for record in records:
            by_record.add_record(record)
        by_batch = BipartiteGraph()
        sample_ids = by_batch.add_batch(RecordBatch.from_records(records))
        assert sample_ids == [by_record.sample_node_id(r.record_id) for r in records]
        frozen_record = by_record.freeze()
        frozen_batch = by_batch.freeze()
        assert np.array_equal(frozen_record.indptr, frozen_batch.indptr)
        assert np.array_equal(frozen_record.indices, frozen_batch.indices)
        assert np.array_equal(frozen_record.weights, frozen_batch.weights)
        assert frozen_record.keys.tolist() == frozen_batch.keys.tolist()


class TestSimulateBatch:
    def test_generate_building_batch_matches_dataset(self):
        config = office_building_config(num_floors=2, samples_per_floor=6)
        from repro.simulate import generate_building_dataset

        dataset = generate_building_dataset(config, seed=11)
        batch = generate_building_batch(config, seed=11)
        assert batch.to_records() == list(dataset.records)


class TestServingBatch:
    def test_labeler_batch_equals_record_path(self, fitted, traffic):
        labeler = OnlineFloorLabeler(fitted)
        batch = RecordBatch.from_records(traffic)
        assert labeler.label(traffic) == labeler.label(batch)

    def test_labeler_empty_batch(self, fitted):
        labeler = OnlineFloorLabeler(fitted)
        assert labeler.label(RecordBatch.from_records([])) == []

    def test_online_floors_batch_identical(self, fitted, traffic):
        batch = RecordBatch.from_records(traffic)
        floors_r, conf_r, known_r = fitted.online_floors(traffic)
        floors_b, conf_b, known_b = fitted.online_floors_batch(batch)
        assert np.array_equal(floors_r, floors_b)
        assert np.array_equal(conf_r, conf_b)
        assert np.array_equal(known_r, known_b)

    def test_registry_buffers_batch_traffic(self, fitted, traffic):
        registry = BuildingRegistry(config=FAST_CONFIG)
        registry.add_fitted("b0", fitted)
        batch = RecordBatch.from_records(traffic[:10])
        labels = registry.label("b0", batch)
        assert [label.record_id for label in labels] == [
            record.record_id for record in traffic[:10]
        ]
        assert registry.buffered_record_count("b0") == 10

    def test_registry_batch_buffering_respects_capacity(self, fitted, traffic):
        from repro.serving.drift import RefreshPolicy

        policy = RefreshPolicy(buffer_size=5)
        registry = BuildingRegistry(config=FAST_CONFIG, refresh_policy=policy)
        registry.add_fitted("b0", fitted)
        registry.label("b0", RecordBatch.from_records(traffic[:12]))
        assert registry.buffered_record_count("b0") == 5
        # Same final buffer as the record path: the last 5 unknown records.
        record_registry = BuildingRegistry(config=FAST_CONFIG, refresh_policy=policy)
        record_registry.add_fitted("b0", fitted)
        record_registry.label("b0", traffic[:12])
        assert list(registry._recent["b0"]) == list(record_registry._recent["b0"])

    def test_refresh_from_batch_matches_records(self, fitted, traffic):
        new_records = [
            SignalRecord(f"wave-{i}", dict(record.readings))
            for i, record in enumerate(traffic[:6])
        ]
        from_batch = fitted.refresh(
            RecordBatch.from_records(new_records), fine_tune_epochs=1
        )
        from_records = fitted.refresh(new_records, fine_tune_epochs=1)
        assert from_batch.report == from_records.report
        assert np.array_equal(
            from_batch.fitted.result.floor_labels,
            from_records.fitted.result.floor_labels,
        )
        # Duplicate ids (already trained on) are skipped either way.
        duplicate = fitted.refresh(
            RecordBatch.from_records(
                new_records + [SignalRecord(fitted.record_ids[0], {"aa": -50.0})]
            ),
            fine_tune_epochs=1,
        )
        assert duplicate.report.num_skipped == 1

    def test_fleet_server_batch_and_mixed_traffic(self, fitted, traffic):
        registry = BuildingRegistry(config=FAST_CONFIG)
        registry.add_fitted("b0", fitted)
        vocab = MacVocab()
        first = RecordBatch.from_records(traffic[:5], vocab=vocab)
        second = RecordBatch.from_records(traffic[5:9], vocab=vocab)
        with FleetServer(registry, num_workers=2) as server:
            futures = [
                server.submit("b0", first),
                server.submit("b0", second),
                server.submit("b0", traffic[9:12]),  # plain records, mixed in
            ]
            responses = [future.result() for future in futures]
        assert [label.record_id for label in responses[0].labels] == [
            record.record_id for record in traffic[:5]
        ]
        assert [len(response.labels) for response in responses] == [5, 4, 3]
        # The responses match the unbatched reference labels exactly.
        reference = OnlineFloorLabeler(fitted).label(traffic[:12])
        served = [
            label for response in responses for label in response.labels
        ]
        assert served == reference

    def test_server_stats_guarded_right_after_start(self, fitted):
        registry = BuildingRegistry(config=FAST_CONFIG)
        registry.add_fitted("b0", fitted)
        server = FleetServer(registry)
        try:
            stats = server.start().stats()
        finally:
            server.stop()
        assert stats.records_per_second == 0.0
        assert math.isfinite(stats.records_per_second)
        assert stats.num_records == 0

    def test_server_stats_zero_window_is_finite(self):
        # Simulate a start/stop pair faster than the clock resolution: the
        # guarded computation must report 0.0, never inf or NaN.
        from repro.serving.server import MIN_STATS_WINDOW_S

        assert MIN_STATS_WINDOW_S > 0
        registry = BuildingRegistry(config=FAST_CONFIG)
        server = FleetServer(registry)
        server._started_at = 0.0
        server._stopped_elapsed = 0.0
        server._num_records = 100
        stats = server.stats()
        assert stats.records_per_second == 0.0
        assert math.isfinite(stats.records_per_second)
