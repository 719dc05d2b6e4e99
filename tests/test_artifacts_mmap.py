"""Memory-mapped artifact loads: bit-identity, zero-copy, hostile bytes."""

from __future__ import annotations

import json
import mmap
import os
import pickle

import numpy as np
import pytest

from repro.core import FisOne
from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import BuildingRegistry, load_artifacts, save_artifacts
from repro.serving.artifacts import ARRAYS_FILENAME, MANIFEST_FILENAME, ArtifactError
from repro.serving.bundle import MAGIC

FAST_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=2,
    max_pairs_per_epoch=8_000,
    inference_passes=1,
    inference_sample_sizes=(20, 10),
)


def backing_buffer(array):
    """The object at the end of ``array``'s ``.base`` chain.

    ``np.frombuffer`` wraps its source in a ``memoryview``, so the chain is
    followed through that view to the exporting object.
    """
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


@pytest.fixture(scope="module")
def fitted_and_stream():
    from repro.simulate import generate_single_building

    labeled = generate_single_building(num_floors=3, samples_per_floor=25, seed=9)
    train, stream = labeled.holdout_split(train_per_floor=18)
    anchor = train.pick_labeled_sample(floor=0)
    observed = train.strip_labels(keep_record_ids=[anchor.record_id])
    fitted = FisOne(FAST_CONFIG).fit(observed, anchor.record_id)
    return fitted, observed, [record.without_floor() for record in stream]


class TestMmapLoadEquivalence:
    def test_labels_identical_to_in_memory_model(self, fitted_and_stream, tmp_path):
        fitted, observed, stream = fitted_and_stream
        save_artifacts(fitted, tmp_path / "model")
        mapped = load_artifacts(tmp_path / "model")
        original, restored = fitted.online_floors(stream), mapped.online_floors(stream)
        assert np.array_equal(original[0], restored[0])
        assert np.allclose(original[1], restored[1])
        assert np.array_equal(fitted.predict(observed), mapped.predict(observed))

    def test_arrays_equal_and_read_only(self, fitted_and_stream, tmp_path):
        fitted, _, _ = fitted_and_stream
        save_artifacts(fitted, tmp_path / "model")
        mapped = load_artifacts(tmp_path / "model")
        assert np.array_equal(mapped.centroids, fitted.centroids)
        assert np.array_equal(mapped.result.embeddings, fitted.result.embeddings)
        # The big arrays really are zero-copy maps, and read-only: an
        # accidental in-place write must fail loudly instead of silently
        # corrupting the process-shared pages.
        assert isinstance(backing_buffer(mapped.centroids), mmap.mmap)
        assert isinstance(backing_buffer(mapped.result.embeddings), mmap.mmap)
        assert not mapped.centroids.flags.writeable
        assert not mapped.result.embeddings.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            mapped.centroids[0, 0] = 1.0

    def test_mmap_loaded_model_round_trips_through_save(
        self, fitted_and_stream, tmp_path
    ):
        fitted, _, stream = fitted_and_stream
        save_artifacts(fitted, tmp_path / "first")
        mapped = load_artifacts(tmp_path / "first")
        save_artifacts(mapped, tmp_path / "second")
        again = load_artifacts(tmp_path / "second")
        for a, b in zip(fitted.online_floors(stream), again.online_floors(stream)):
            assert np.array_equal(a, b)

    def test_mmap_loaded_model_can_refresh(self, fitted_and_stream, tmp_path):
        from repro.signals.record import SignalRecord

        fitted, _, stream = fitted_and_stream
        save_artifacts(fitted, tmp_path / "model")
        mapped = load_artifacts(tmp_path / "model")
        new_records = [
            SignalRecord(f"fresh-{i}", dict(record.readings))
            for i, record in enumerate(stream[:6])
        ]
        # The refresh pipeline copies before mutating; a read-only mapped
        # parent must warm-start a new generation without error.
        result = mapped.refresh(new_records, fine_tune_epochs=1)
        assert result.fitted.model_version == mapped.model_version + 1

    def test_registry_load_labels_like_in_memory_model(self, fitted_and_stream, tmp_path):
        fitted, _, stream = fitted_and_stream
        store = tmp_path / "store"
        save_artifacts(fitted, store / "bldg")
        registry = BuildingRegistry(store_dir=store, config=FAST_CONFIG)
        labels = registry.label("bldg", stream)
        assert registry.stats.loads == 1
        floors, confidences, _ = fitted.online_floors(stream)
        assert [label.floor for label in labels] == floors.tolist()
        assert np.allclose([label.confidence for label in labels], confidences)

    def test_mapped_model_survives_overwrite_of_its_artifact(self, fitted_and_stream, tmp_path):
        # Saves swap a new arrays.bin in by rename and never write into the
        # old file, so a model mapping an earlier save keeps its pages (no
        # SIGBUS, no torn arrays) while a fresh load sees the new save.
        fitted, observed, stream = fitted_and_stream
        path = save_artifacts(fitted, tmp_path / "model")
        mapped = load_artifacts(path)
        before = mapped.online_floors(stream)
        anchor_id = next(record.record_id for record in observed if record.floor is not None)
        refit = FisOne(FAST_CONFIG.with_seed(FAST_CONFIG.seed + 1)).fit(observed, anchor_id)
        save_artifacts(refit, path)
        after = mapped.online_floors(stream)
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()
        assert mapped.result.embeddings.tobytes() == fitted.result.embeddings.tobytes()
        fresh = load_artifacts(path)
        assert fresh.result.embeddings.tobytes() == refit.result.embeddings.tobytes()
        assert fresh.result.embeddings.tobytes() != fitted.result.embeddings.tobytes()


#: A fit small enough that loading its artifact once per truncation length
#: of ``arrays.bin`` stays a few seconds.
TINY_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=4, neighbor_sample_sizes=(4, 2)),
    num_epochs=1,
    max_pairs_per_epoch=500,
    inference_passes=1,
    inference_sample_sizes=(4, 2),
)


@pytest.fixture(scope="module")
def tiny_fitted():
    from repro.simulate import generate_single_building

    labeled = generate_single_building(num_floors=2, samples_per_floor=6, seed=9)
    anchor = labeled.pick_labeled_sample(floor=0)
    observed = labeled.strip_labels(keep_record_ids=[anchor.record_id])
    return FisOne(TINY_CONFIG).fit(observed, anchor.record_id)


@pytest.fixture
def no_unpickling(monkeypatch):
    """Fail the test if anything is unpickled while it runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("an artifact load tried to unpickle")

    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "load", refuse)


def rewrite_header(path, mutate):
    """Rewrite ``path``'s bundle header through ``mutate(entries)``, keeping
    every payload where its (still valid) offset says."""
    blob = path.read_bytes()
    header_length = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    header_end = len(MAGIC) + 8 + header_length
    payload = blob[-(-header_end // 64) * 64 :]
    header = json.loads(blob[len(MAGIC) + 8 : header_end])
    mutate(header["arrays"])
    encoded = json.dumps(header).encode("utf-8")
    prefix = MAGIC + len(encoded).to_bytes(8, "little") + encoded
    path.write_bytes(prefix.ljust(-(-len(prefix) // 64) * 64, b"\0") + payload)


def model_arrays(fitted):
    arrays = {
        "centroids": fitted.centroids,
        "embeddings": fitted.result.embeddings,
        "floor_labels": fitted.result.floor_labels,
        "cluster_labels": fitted.result.assignment.labels,
        "similarity": fitted.result.indexing.similarity,
        "graph_indptr": fitted.graph.indptr,
        "graph_indices": fitted.graph.indices,
        "graph_weights": fitted.graph.weights,
        "graph_kinds": fitted.graph.kinds,
    }
    for hop, (weight, hidden) in enumerate(
        zip(fitted.encoder.weights, fitted.encoder.mac_hidden)
    ):
        arrays[f"weight_{hop}"] = weight
        arrays[f"mac_hidden_{hop}"] = hidden
    return arrays


class TestLoadModes:
    def test_arrays_aligned_read_only_and_bit_identical(self, tiny_fitted, tmp_path):
        path = save_artifacts(tiny_fitted, tmp_path / "model")
        loaded = model_arrays(load_artifacts(path))
        for name, array in model_arrays(tiny_fitted).items():
            assert array.dtype == loaded[name].dtype, name
            assert array.shape == loaded[name].shape, name
            assert array.tobytes() == loaded[name].tobytes(), name
            assert loaded[name].flags.aligned, name
            assert not loaded[name].flags.writeable, name


class TestHostileBundles:
    """Malformed ``arrays.bin`` files fail as ArtifactError and unpickle nothing."""

    def test_every_truncation_raises_artifact_error(
        self, tiny_fitted, tmp_path, no_unpickling
    ):
        path = save_artifacts(tiny_fitted, tmp_path / "model")
        arrays_path = path / ARRAYS_FILENAME
        size = arrays_path.stat().st_size
        for length in reversed(range(size)):
            os.truncate(arrays_path, length)
            with pytest.raises(ArtifactError, match="unreadable arrays"):
                load_artifacts(path)

    def test_garbage_bytes_raise_artifact_error(
        self, tiny_fitted, tmp_path, no_unpickling
    ):
        path = save_artifacts(tiny_fitted, tmp_path / "model")
        arrays_path = path / ARRAYS_FILENAME
        size = arrays_path.stat().st_size
        rng = np.random.default_rng(0)
        for blob in (
            b"not an array bundle",
            rng.integers(0, 256, size, dtype=np.uint8).tobytes(),
            pickle.dumps({"weight_0": np.ones(3)}),
        ):
            arrays_path.write_bytes(blob)
            with pytest.raises(ArtifactError, match="unreadable arrays"):
                load_artifacts(path)

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda entries: entries[0].update(dtype="|O"), "object dtype"),
            (lambda entries: entries[1].update(shape=[-1, 4]), "invalid shape/offset"),
            (lambda entries: entries[1].update(offset=1 << 40), "past the end"),
            (lambda entries: entries[1].update(offset=-64), "invalid shape/offset"),
            (lambda entries: entries[0].update(dtype="not-a-dtype"), "unknown dtype"),
        ],
        ids=["object-dtype", "negative-shape", "offset-past-end", "negative-offset", "bad-dtype"],
    )
    def test_hostile_header_raises_artifact_error(
        self, tiny_fitted, tmp_path, no_unpickling, mutate, reason
    ):
        path = save_artifacts(tiny_fitted, tmp_path / "model")
        rewrite_header(path / ARRAYS_FILENAME, mutate)
        with pytest.raises(ArtifactError, match=f"unreadable arrays.*{reason}"):
            load_artifacts(path)

    def test_header_length_past_end_raises_artifact_error(
        self, tiny_fitted, tmp_path, no_unpickling
    ):
        path = save_artifacts(tiny_fitted, tmp_path / "model")
        arrays_path = path / ARRAYS_FILENAME
        blob = bytearray(arrays_path.read_bytes())
        blob[len(MAGIC) : len(MAGIC) + 8] = len(blob).to_bytes(8, "little")
        arrays_path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="unreadable arrays.*header length"):
            load_artifacts(path)

    def test_unparseable_header_raises_artifact_error(
        self, tiny_fitted, tmp_path, no_unpickling
    ):
        path = save_artifacts(tiny_fitted, tmp_path / "model")
        arrays_path = path / ARRAYS_FILENAME
        blob = bytearray(arrays_path.read_bytes())
        blob[len(MAGIC) + 8] = ord("}")
        arrays_path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="unreadable arrays.*corrupt header"):
            load_artifacts(path)

    def test_format_version_1_directory_is_rejected(
        self, tiny_fitted, tmp_path, no_unpickling
    ):
        # A version-1 directory: the same manifest fields, arrays in
        # ``arrays.npz`` and no ``arrays.bin``.
        path = save_artifacts(tiny_fitted, tmp_path / "model")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        np.savez(path / "arrays.npz", centroids=tiny_fitted.centroids)
        (path / ARRAYS_FILENAME).unlink()
        with pytest.raises(ArtifactError, match="format version 1"):
            load_artifacts(path)
