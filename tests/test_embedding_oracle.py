"""Oracle tests: the online embedding and centroid step against reference code.

``FrozenEncoder`` has one numeric kernel; ``embed_records`` columnarises a
record list into it and ``embed_batch`` feeds it a ``RecordBatch``.  So a
record-vs-batch comparison cannot catch a kernel regression — both sides
run the same code.  This module keeps the straightforward implementations
the kernel replaced as oracles:

* :func:`reference_embed_records` — a per-reading dict-probe loop and one
  ``np.add.at`` scatter per hop over the whole batch;
* :func:`reference_floors` — the full softmax matrix, gathered at the
  winning cluster.

and asserts the production paths match them to the last bit, for request
sized batches, batches spanning several kernel chunks, records with no known
MAC, readings at the -120 dBm validity floor (the weight clamp), the
no-attention encoder, and a model with an empty cluster.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.assignments import ClusterAssignment
from repro.core import FisOne, FisOneConfig
from repro.core.pipeline import CONFIDENCE_TEMPERATURE, FittedFisOne
from repro.gnn.frozen import FrozenEncoder
from repro.gnn.model import RFGNNConfig
from repro.signals.batch import RecordBatch
from repro.signals.record import SignalRecord
from repro.simulate.collector import CollectionConfig
from repro.simulate.generators import BuildingConfig, generate_building_dataset

ORACLE_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(8, 4)),
    num_epochs=1,
    max_pairs_per_epoch=4_000,
    inference_passes=1,
    inference_sample_sizes=(12, 6),
    seed=0,
)

#: MACs no simulated building uses.
UNKNOWN_MACS = [f"zz:zz:zz:00:00:{i:02x}" for i in range(6)]

#: The validity floor: with the default 120 dB offset its weight clamps.
FLOOR_DBM = -120.0


def reference_embed_records(
    encoder: FrozenEncoder, records: Sequence[SignalRecord]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-reading loop + ``np.add.at``: what the kernel must reproduce."""
    num_records = len(records)
    rows, owners, raw_weights = [], [], []
    known_fraction = np.zeros(num_records, dtype=np.float64)
    for index, record in enumerate(records):
        known = 0
        for mac, rss in record.readings.items():
            row = encoder._mac_row.get(mac)
            if row is None:
                continue
            known += 1
            rows.append(row)
            owners.append(index)
            if encoder.attention:
                clamped = max(float(rss) + encoder.rss_offset_db, 1e-6)
                raw_weights.append(clamped * clamped)
            else:
                raw_weights.append(1.0)
        known_fraction[index] = known / len(record.readings)
    row_index = np.asarray(rows, dtype=np.int64)
    owner_index = np.asarray(owners, dtype=np.int64)
    edge_weights = np.asarray(raw_weights, dtype=np.float64)
    weight_sums = np.zeros(num_records, dtype=np.float64)
    np.add.at(weight_sums, owner_index, edge_weights)
    coefficients = edge_weights / weight_sums[owner_index]
    activation = encoder._activation
    hidden = np.zeros((num_records, encoder.input_dim), dtype=np.float64)
    for hop in range(encoder.num_hops):
        neighbor_hidden = encoder.mac_hidden[hop]
        aggregated = np.zeros((num_records, neighbor_hidden.shape[1]), dtype=np.float64)
        np.add.at(aggregated, owner_index, coefficients[:, None] * neighbor_hidden[row_index])
        concatenated = np.concatenate([hidden, aggregated], axis=1)
        activated = activation.forward(concatenated @ encoder.weights[hop])
        norms = np.maximum(np.linalg.norm(activated, axis=1, keepdims=True), 1e-12)
        hidden = activated / norms
    return hidden, known_fraction


def reference_floors(
    fitted: FittedFisOne, embeddings: np.ndarray, known_fraction: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full softmax matrix, gathered at the winner: the centroid-step oracle."""
    sizes = np.bincount(
        fitted.result.assignment.labels, minlength=fitted.result.assignment.num_clusters
    )
    similarities = embeddings @ fitted.centroids.T
    similarities[:, sizes == 0] = -np.inf
    scaled = similarities / CONFIDENCE_TEMPERATURE
    scaled -= scaled.max(axis=1, keepdims=True)
    probabilities = np.exp(scaled)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    clusters = np.argmax(similarities, axis=1)
    confidences = probabilities[np.arange(embeddings.shape[0]), clusters]
    blind = known_fraction == 0.0
    clusters[blind] = int(np.argmax(sizes))
    confidences[blind] = 0.0
    floors = np.array(
        [fitted.cluster_to_floor[int(cluster)] for cluster in clusters], dtype=np.int64
    )
    return floors, confidences, known_fraction


@pytest.fixture(scope="module")
def fitted() -> FittedFisOne:
    dataset = generate_building_dataset(
        BuildingConfig(
            num_floors=3,
            aps_per_floor=8,
            width_m=60.0,
            depth_m=40.0,
            collection=CollectionConfig(
                samples_per_floor=15, scans_per_contributor=8, sensitivity_dbm=-90.0
            ),
            building_id="oracle",
        ),
        seed=21,
    )
    anchor = dataset.pick_labeled_sample(floor=0)
    observed = dataset.strip_labels(keep_record_ids=[anchor.record_id])
    return FisOne(ORACLE_CONFIG).fit(observed, anchor.record_id)


@pytest.fixture(scope="module")
def emptied(fitted) -> FittedFisOne:
    """``fitted`` with its last cluster emptied (members moved, zero centroid)."""
    assignment = fitted.result.assignment
    last = assignment.num_clusters - 1
    labels = np.where(assignment.labels == last, 0, assignment.labels)
    result = dataclasses.replace(
        fitted.result,
        assignment=ClusterAssignment(labels=labels, num_clusters=assignment.num_clusters),
    )
    centroids = fitted.centroids.copy()
    centroids[last] = 0.0
    return dataclasses.replace(fitted, result=result, centroids=centroids)


@st.composite
def records_strategy(draw, macs, min_size=1, max_size=8):
    """1-8 records over known and unknown MACs; some RSS sit at -120 dBm."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    records = []
    for index in range(count):
        chosen = draw(st.lists(st.sampled_from(macs), min_size=1, max_size=8, unique=True))
        readings = {
            mac: draw(
                st.one_of(
                    st.just(FLOOR_DBM),
                    st.floats(min_value=FLOOR_DBM, max_value=0.0, allow_nan=False),
                )
            )
            for mac in chosen
        }
        records.append(SignalRecord(f"oracle-{index}", readings))
    return records


def _mac_pool(fitted: FittedFisOne) -> list:
    return list(fitted.encoder.mac_vocabulary[:12]) + UNKNOWN_MACS


def _assert_embeddings_match_oracle(encoder: FrozenEncoder, records) -> None:
    expected, expected_known = reference_embed_records(encoder, records)
    for embeddings, known in (
        encoder.embed_records(records),
        encoder.embed_batch(RecordBatch.from_records(records)),
    ):
        assert np.array_equal(embeddings, expected)
        assert np.array_equal(known, expected_known)


def _assert_floors_match_oracle(model: FittedFisOne, records) -> Tuple[np.ndarray, ...]:
    expected = reference_floors(model, *reference_embed_records(model.encoder, records))
    for actual in (
        model.online_floors(records),
        model.online_floors_batch(RecordBatch.from_records(records)),
    ):
        for got, want in zip(actual, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    return expected


class TestRequestSized:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_embeddings_match_oracle(self, fitted, data):
        records = data.draw(records_strategy(_mac_pool(fitted)))
        _assert_embeddings_match_oracle(fitted.encoder, records)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_floors_match_oracle(self, fitted, data):
        records = data.draw(records_strategy(_mac_pool(fitted)))
        _assert_floors_match_oracle(fitted, records)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_no_attention_encoder_matches_oracle(self, fitted, data):
        records = data.draw(records_strategy(_mac_pool(fitted)))
        uniform = dataclasses.replace(fitted.encoder, attention=False)
        _assert_embeddings_match_oracle(uniform, records)
        _assert_floors_match_oracle(dataclasses.replace(fitted, encoder=uniform), records)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_records_with_no_known_mac(self, fitted, data):
        known = data.draw(records_strategy(_mac_pool(fitted), max_size=4))
        blind = data.draw(records_strategy(UNKNOWN_MACS, max_size=4))
        records = [
            SignalRecord(f"mixed-{index}", record.readings)
            for index, record in enumerate(known + blind)
        ]
        floors, confidences, fractions = _assert_floors_match_oracle(fitted, records)
        assert np.all(fractions[len(known) :] == 0.0)
        assert np.all(confidences[len(known) :] == 0.0)

    def test_clamped_floor_reading(self, fitted):
        first, second = fitted.encoder.mac_vocabulary[:2]
        records = [
            SignalRecord("floor-only", {first: FLOOR_DBM}),
            SignalRecord("floor-and-more", {first: FLOOR_DBM, second: -60.0}),
        ]
        _assert_embeddings_match_oracle(fitted.encoder, records)
        embeddings, _ = fitted.encoder.embed_records(records)
        assert np.all(np.isfinite(embeddings))


class TestEmptyCluster:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_floors_match_oracle(self, emptied, data):
        records = data.draw(records_strategy(_mac_pool(emptied)))
        floors, _, fractions = _assert_floors_match_oracle(emptied, records)
        last = emptied.result.assignment.num_clusters - 1
        assert not np.any(floors[fractions > 0.0] == emptied.cluster_to_floor[last])


class TestMultiChunk:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batches_longer_than_one_chunk(self, fitted, data):
        # The smallest chunk the kernel allows is 256 readings; replicate
        # the drawn records until the batch spans at least three chunks.
        encoder = dataclasses.replace(fitted.encoder)
        encoder._CHUNK_BYTES = 1
        base = data.draw(records_strategy(_mac_pool(fitted)))
        readings = sum(len(record) for record in base)
        copies = -(-3 * 256 // readings) + 1
        records = [
            SignalRecord(f"copy-{copy}-{index}", record.readings)
            for copy in range(copies)
            for index, record in enumerate(base)
        ]
        _assert_embeddings_match_oracle(encoder, records)
        _assert_floors_match_oracle(dataclasses.replace(fitted, encoder=encoder), records)
