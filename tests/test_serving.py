"""Tests for the serving subsystem: fitted models, artifacts, registry, server."""

from __future__ import annotations

import json
import queue
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import FisOne, FisOneConfig, FittedFisOne
from repro.gnn.model import RFGNNConfig
from repro.gnn.trainer import RFGNNTrainer
from repro.graph.bipartite import BipartiteGraph
from repro.serving import (
    ArtifactError,
    BuildingRegistry,
    FleetServer,
    LabelRequest,
    OnlineFloorLabeler,
    load_artifacts,
    save_artifacts,
)
from repro.serving.artifacts import (
    ARRAYS_FILENAME,
    MANIFEST_FILENAME,
    config_from_dict,
    config_to_dict,
)
from repro.serving.bundle import bundle_views, pack_bundle
from repro.signals.dataset import SignalDataset
from repro.signals.record import SignalRecord
from repro.simulate import generate_single_building
from repro.simulate.generators import generate_building_dataset
from repro.telemetry import Telemetry
from tests.conftest import small_building_config

#: Benchmark-sized configuration for the fixture building fitted once below.
SERVING_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=3,
    max_pairs_per_epoch=15_000,
    inference_passes=2,
    inference_sample_sizes=(30, 15),
)

#: Even smaller configuration for registry/server tests that fit several
#: tiny buildings.
TINY_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(8, 4)),
    num_epochs=2,
    max_pairs_per_epoch=4_000,
    inference_passes=1,
    inference_sample_sizes=(12, 6),
)


def read_arrays(path):
    """Every array of the artifact at ``path``, read into memory so the
    file can be rewritten in place while they live."""
    return bundle_views((path / ARRAYS_FILENAME).read_bytes())


def write_arrays(path, arrays):
    """Replace the artifact's arrays with ``arrays``, through the bundle writer."""
    (path / ARRAYS_FILENAME).write_bytes(pack_bundle(arrays))


@pytest.fixture(scope="module")
def serving_building():
    """A labeled 3-floor building split into train (96) and held-out (54)."""
    labeled = generate_single_building(num_floors=3, samples_per_floor=50, seed=21)
    train, held = labeled.holdout_split(train_per_floor=32)
    return labeled, train, held


@pytest.fixture(scope="module")
def fitted_model(serving_building):
    """One fitted model on the training split (fit once per module)."""
    _, train, _ = serving_building
    anchor = train.pick_labeled_sample(floor=0)
    observed = train.strip_labels(keep_record_ids=[anchor.record_id])
    fitted = FisOne(SERVING_CONFIG).fit(observed, anchor.record_id, labeled_floor=0)
    return observed, anchor, fitted


def tiny_building(seed: int) -> SignalDataset:
    """A fast-to-fit 3-floor building for registry/server tests."""
    return generate_building_dataset(
        small_building_config(num_floors=3, samples_per_floor=12), seed=seed
    )


class TestFittedFisOne:
    def test_fit_returns_fitted_model(self, fitted_model):
        observed, _, fitted = fitted_model
        assert isinstance(fitted, FittedFisOne)
        assert fitted.num_floors == 3
        assert fitted.record_ids == tuple(observed.record_ids)
        assert fitted.centroids.shape == (3, SERVING_CONFIG.gnn.embedding_dim)
        assert fitted.encoder.num_hops == SERVING_CONFIG.gnn.num_hops
        assert set(fitted.cluster_to_floor.values()) == {0, 1, 2}

    def test_predict_on_training_dataset_reproduces_labels(self, fitted_model):
        observed, _, fitted = fitted_model
        assert np.array_equal(fitted.predict(observed), fitted.floor_labels)

    def test_fit_predict_is_thin_wrapper(self):
        dataset = tiny_building(seed=31)
        anchor = dataset.pick_labeled_sample(floor=0)
        observed = dataset.strip_labels(keep_record_ids=[anchor.record_id])
        fitted = FisOne(TINY_CONFIG).fit(observed, anchor.record_id)
        result = FisOne(TINY_CONFIG).fit_predict(observed, anchor.record_id)
        assert np.array_equal(result.floor_labels, fitted.result.floor_labels)
        assert np.allclose(result.embeddings, fitted.result.embeddings)

    def test_online_accuracy_tracks_full_refit(self, serving_building, fitted_model):
        labeled, _, held = serving_building
        observed, anchor, fitted = fitted_model
        assert len(held) >= 50
        truth = np.array([record.floor for record in held])

        floors, confidences, known = fitted.online_floors(held)
        online_accuracy = float(np.mean(floors == truth))

        # Reference: refit the whole pipeline with the held-out records merged
        # into the (unlabeled) crowdsourced dataset.
        merged = observed.merge(
            SignalDataset(
                [record.without_floor() for record in held],
                num_floors=labeled.num_floors,
            )
        )
        refit = FisOne(SERVING_CONFIG).fit_predict(merged, anchor.record_id)
        held_positions = [merged.index_of(record.record_id) for record in held]
        refit_accuracy = float(np.mean(refit.floor_labels[held_positions] == truth))

        assert online_accuracy >= refit_accuracy - 0.05
        assert np.all(known == 1.0)
        assert np.all((confidences > 0.0) & (confidences <= 1.0))

    def test_unknown_macs_fall_back_with_zero_confidence(self, fitted_model):
        _, _, fitted = fitted_model
        alien = SignalRecord("alien", {"ff:ff:ff:00:00:01": -60.0, "ff:ff:ff:00:00:02": -70.0})
        floors, confidences, known = fitted.online_floors([alien])
        assert 0 <= floors[0] < fitted.num_floors
        assert confidences[0] == 0.0
        assert known[0] == 0.0

    def test_boundary_rss_reading_does_not_crash(self, fitted_model):
        # -120 dBm is a *valid* reading but maps to edge weight 0; the
        # online path must clamp it rather than fail the batch.
        _, _, fitted = fitted_model
        mac = fitted.encoder.mac_vocabulary[0]
        faint = SignalRecord("faint", {mac: -120.0})
        floors, confidences, known = fitted.online_floors([faint])
        assert 0 <= floors[0] < fitted.num_floors
        assert known[0] == 1.0

    def test_no_attention_model_serves_online(self):
        # The Figure 8(a-b) ablation trains with uniform (mean) aggregation;
        # the frozen encoder must aggregate the same way, also after a
        # save/load round trip.
        dataset = tiny_building(seed=33)
        anchor = dataset.pick_labeled_sample(floor=0)
        observed = dataset.strip_labels(keep_record_ids=[anchor.record_id])
        fitted = FisOne(TINY_CONFIG.without_attention()).fit(observed, anchor.record_id)
        assert fitted.encoder.attention is False
        records = [record.without_floor() for record in list(dataset)[:5]]
        floors, _, known = fitted.online_floors(records)
        assert np.all((0 <= floors) & (floors < 3))
        assert np.all(known == 1.0)

    def test_predict_mixes_stored_and_online(self, serving_building, fitted_model):
        _, _, held = serving_building
        observed, _, fitted = fitted_model
        mixed = observed.merge(
            SignalDataset([held[0].without_floor()], num_floors=fitted.num_floors)
        )
        labels = fitted.predict(mixed)
        assert np.array_equal(labels[: len(observed)], fitted.floor_labels)
        assert 0 <= labels[-1] < fitted.num_floors


class TestTrainerOnlineEmbeddings:
    def test_sample_embeddings_accepts_out_of_dataset_records(self, tiny_dataset):
        graph = BipartiteGraph.from_dataset(tiny_dataset)
        trainer = RFGNNTrainer(
            graph,
            RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(4, 2)),
            num_epochs=1,
            seed=0,
        )
        trainer.fit()
        new_records = [
            SignalRecord("new-0", {"aa": -45.0, "bb": -58.0}),
            SignalRecord("new-1", {"cc": -50.0, "dd": -51.0}),
        ]
        embeddings = trainer.sample_embeddings(sample_sizes=(8, 4), records=new_records)
        assert embeddings.shape == (2, 8)
        assert np.allclose(np.linalg.norm(embeddings, axis=1), 1.0)


class TestArtifacts:
    def test_round_trip_reproduces_predictions(self, fitted_model, tmp_path):
        observed, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        loaded = load_artifacts(path)
        assert loaded.building_id == fitted.building_id
        assert loaded.num_floors == fitted.num_floors
        assert loaded.record_ids == fitted.record_ids
        assert loaded.config == fitted.config
        assert np.array_equal(loaded.predict(observed), fitted.floor_labels)

    def test_round_trip_online_labels_identical(self, serving_building, fitted_model, tmp_path):
        _, _, held = serving_building
        _, _, fitted = fitted_model
        loaded = load_artifacts(save_artifacts(fitted, tmp_path / "building"))
        original = fitted.online_floors(held)
        restored = loaded.online_floors(held)
        assert np.array_equal(original[0], restored[0])
        assert np.allclose(original[1], restored[1])

    def test_round_trip_preserves_attention_flag(self, tmp_path):
        dataset = tiny_building(seed=34)
        anchor = dataset.pick_labeled_sample(floor=0)
        observed = dataset.strip_labels(keep_record_ids=[anchor.record_id])
        fitted = FisOne(TINY_CONFIG.without_attention()).fit(observed, anchor.record_id)
        loaded = load_artifacts(save_artifacts(fitted, tmp_path / "ablated"))
        assert loaded.encoder.attention is False
        assert loaded.config.gnn.attention is False

    def test_round_trip_preserves_training_graph(self, fitted_model, tmp_path):
        _, _, fitted = fitted_model
        loaded = load_artifacts(save_artifacts(fitted, tmp_path / "building"))
        assert loaded.graph is not None
        assert np.array_equal(loaded.graph.indptr, fitted.graph.indptr)
        assert np.array_equal(loaded.graph.indices, fitted.graph.indices)
        assert np.array_equal(loaded.graph.weights, fitted.graph.weights)
        assert np.array_equal(loaded.graph.kinds, fitted.graph.kinds)
        assert list(loaded.graph.keys) == list(fitted.graph.keys)
        assert loaded.graph.offset_db == fitted.graph.offset_db

    def test_loaded_graph_warm_starts_record_growth(self, fitted_model, tmp_path):
        # The serving warm-start path: load a model, thaw its persisted
        # graph, and grow it with a new crowdsourced record — no dataset
        # re-parse, no refit.
        observed, _, fitted = fitted_model
        loaded = load_artifacts(save_artifacts(fitted, tmp_path / "building"))
        builder = loaded.warm_start_graph()
        known_mac = next(iter(observed[0].readings))
        before_nodes = builder.num_nodes
        builder.add_record(SignalRecord("online-0", {known_mac: -55.0}))
        assert builder.num_nodes == before_nodes + 1  # new sample, known MAC
        regrown = builder.freeze()
        assert regrown.sample_node_id("online-0") == before_nodes
        assert regrown.num_edges == loaded.graph.num_edges + 1

    def test_save_without_graph_opt_out(self, fitted_model, tmp_path):
        # Fleets that never grow graphs offline can skip the O(edges) cost.
        _, _, fitted = fitted_model
        loaded = load_artifacts(
            save_artifacts(fitted, tmp_path / "slim", include_graph=False)
        )
        assert loaded.graph is None
        with pytest.raises(ValueError, match="no training graph"):
            loaded.warm_start_graph()

    def test_legacy_artifact_without_graph_still_loads(self, fitted_model, tmp_path):
        # Artifacts saved before the CSR graph was persisted lack the graph_*
        # arrays; they must load fine, with warm start explicitly refused.
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        arrays = {
            name: array
            for name, array in read_arrays(path).items()
            if not name.startswith("graph_")
        }
        write_arrays(path, arrays)
        loaded = load_artifacts(path)
        assert loaded.graph is None
        with pytest.raises(ValueError, match="no training graph"):
            loaded.warm_start_graph()

    def test_unsupported_version_rejected(self, fitted_model, tmp_path):
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError):
            load_artifacts(path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifacts(tmp_path / "nowhere")

    def test_inconsistent_arrays_rejected(self, fitted_model, tmp_path):
        # A torn overwrite (manifest from one fit, arrays from another) must
        # fail at load time, not as an IndexError at predict time.
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        arrays = read_arrays(path)
        arrays["floor_labels"] = arrays["floor_labels"][:-5]
        write_arrays(path, arrays)
        with pytest.raises(ArtifactError, match="inconsistent"):
            load_artifacts(path)

    def test_dimensionally_corrupt_weights_rejected(self, fitted_model, tmp_path):
        # Bit rot that preserves the token and row counts but breaks the
        # weight chain must fail at load, not as a matmul error mid-request.
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        arrays = read_arrays(path)
        arrays["weight_0"] = arrays["weight_0"][:, :-2]
        write_arrays(path, arrays)
        with pytest.raises(ArtifactError, match="inconsistent"):
            load_artifacts(path)

    def test_mismatched_save_token_rejected(self, fitted_model, tmp_path):
        # Manifest and arrays from *different* saves (the cross-process
        # overwrite race) must be caught even when every shape matches.
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        manifest_path = path / MANIFEST_FILENAME
        stale_manifest = manifest_path.read_text()
        save_artifacts(fitted, path)  # overwrite: new token in both files
        manifest_path.write_text(stale_manifest)  # old manifest, new arrays
        with pytest.raises(ArtifactError, match="different saves"):
            load_artifacts(path)

    def test_config_round_trip(self):
        payload = config_to_dict(SERVING_CONFIG)
        assert config_from_dict(json.loads(json.dumps(payload))) == SERVING_CONFIG

    @staticmethod
    def _manifest_modulo_token(path):
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        manifest.pop("save_token")
        return manifest

    @staticmethod
    def _arrays_modulo_token(path):
        return {
            name: array
            for name, array in read_arrays(path).items()
            if name != "save_token"
        }

    @pytest.mark.parametrize("include_graph", [True, False])
    def test_save_load_save_is_idempotent(self, fitted_model, tmp_path, include_graph):
        # save -> load -> save must reproduce the manifest verbatim (modulo
        # the per-save token) and every array bit for bit: nothing may be
        # lost or perturbed by a round trip through disk.
        _, _, fitted = fitted_model
        first = save_artifacts(
            fitted, tmp_path / "first", include_graph=include_graph
        )
        loaded = load_artifacts(first)
        second = save_artifacts(loaded, tmp_path / "second", include_graph=include_graph)
        assert self._manifest_modulo_token(first) == self._manifest_modulo_token(
            second
        )
        arrays_first = self._arrays_modulo_token(first)
        arrays_second = self._arrays_modulo_token(second)
        assert set(arrays_first) == set(arrays_second)
        if include_graph:
            assert "graph_indptr" in arrays_first
        else:
            assert not any(name.startswith("graph_") for name in arrays_first)
        for name, array in arrays_first.items():
            other = arrays_second[name]
            assert array.dtype == other.dtype, name
            assert array.shape == other.shape, name
            assert array.tobytes() == other.tobytes(), name

    def test_truncated_arrays_raise_artifact_error(self, fitted_model, tmp_path):
        # A partially copied arrays file must fail as a clear ArtifactError,
        # not a ValueError/OSError stack from numpy internals.
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        arrays_path = path / ARRAYS_FILENAME
        payload = arrays_path.read_bytes()
        arrays_path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ArtifactError, match="unreadable arrays"):
            load_artifacts(path)

    def test_corrupted_manifest_raises_artifact_error(
        self, fitted_model, tmp_path
    ):
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        (path / MANIFEST_FILENAME).write_text("{not valid json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="unreadable manifest"):
            load_artifacts(path)

    def test_truncated_manifest_raises_artifact_error(
        self, fitted_model, tmp_path
    ):
        _, _, fitted = fitted_model
        path = save_artifacts(fitted, tmp_path / "building")
        manifest_path = path / MANIFEST_FILENAME
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        with pytest.raises(ArtifactError, match="unreadable manifest"):
            load_artifacts(path)


class TestBuildingRegistry:
    def test_lazy_fit_and_cache_hits(self):
        registry = BuildingRegistry(capacity=2, config=TINY_CONFIG)
        registry.register("b0", tiny_building(seed=41))
        first = registry.get("b0")
        second = registry.get("b0")
        assert first is second
        assert registry.stats.fits == 1
        assert registry.stats.hits == 1
        assert registry.stats.misses == 1

    def test_label_returns_typed_results(self):
        registry = BuildingRegistry(capacity=2, config=TINY_CONFIG)
        dataset = tiny_building(seed=42)
        registry.register("b0", dataset)
        labels = registry.label("b0", list(dataset)[:3])
        assert len(labels) == 3
        assert all(0 <= label.floor < 3 for label in labels)
        assert all(label.known_mac_fraction == 1.0 for label in labels)

    def test_eviction_reloads_from_store(self, tmp_path):
        registry = BuildingRegistry(
            store_dir=tmp_path / "store", capacity=1, config=TINY_CONFIG
        )
        registry.register("b0", tiny_building(seed=43))
        registry.register("b1", tiny_building(seed=44))
        registry.get("b0")
        registry.get("b1")  # evicts b0 (capacity 1), but b0 is on disk
        assert registry.cached_building_ids == ["b1"]
        assert registry.stats.evictions == 1
        registry.get("b0")
        assert registry.stats.fits == 2
        assert registry.stats.loads == 1

    def test_fresh_registry_serves_from_store(self, tmp_path):
        store = tmp_path / "store"
        writer = BuildingRegistry(store_dir=store, capacity=2, config=TINY_CONFIG)
        dataset = tiny_building(seed=45)
        writer.register("b0", dataset)
        writer.get("b0")

        reader = BuildingRegistry(store_dir=store, capacity=2, config=TINY_CONFIG)
        assert "b0" in reader
        labels = reader.label("b0", list(dataset)[:2])
        assert len(labels) == 2
        assert reader.stats.loads == 1
        assert reader.stats.fits == 0

    def test_unknown_building_rejected(self):
        registry = BuildingRegistry(config=TINY_CONFIG)
        with pytest.raises(KeyError):
            registry.get("ghost")

    def test_path_escaping_building_ids_rejected(self, tmp_path):
        registry = BuildingRegistry(store_dir=tmp_path / "store", config=TINY_CONFIG)
        for bad_id in ("../outside", "a/b", "a\\b", "C:evil", "..", ""):
            with pytest.raises(ValueError):
                registry.register(bad_id, tiny_building(seed=57))
            with pytest.raises(ValueError):
                registry.get(bad_id)
            assert bad_id not in registry

    def test_corrupt_artifact_falls_back_to_refit(self, tmp_path):
        store = tmp_path / "store"
        registry = BuildingRegistry(store_dir=store, capacity=2, config=TINY_CONFIG)
        registry.register("b0", tiny_building(seed=58))
        registry.get("b0")
        (store / "b0" / ARRAYS_FILENAME).write_bytes(b"not an array bundle")

        # A fresh registry with the source registered refits over the junk.
        recovered = BuildingRegistry(store_dir=store, capacity=2, config=TINY_CONFIG)
        recovered.register("b0", tiny_building(seed=58))
        fitted = recovered.get("b0")
        assert recovered.stats.fits == 1
        assert recovered.stats.loads == 0
        # ... and the refit overwrote the corrupt artifact in place.
        reloaded = BuildingRegistry(store_dir=store, capacity=2, config=TINY_CONFIG)
        assert np.array_equal(
            reloaded.get("b0").floor_labels, fitted.floor_labels
        )

    def test_reregister_supersedes_cached_and_stored_model(self, tmp_path):
        registry = BuildingRegistry(
            store_dir=tmp_path / "store", capacity=2, config=TINY_CONFIG
        )
        registry.register("b0", tiny_building(seed=55))
        first = registry.get("b0")
        # Refreshed survey data: the old cache entry and artifact are stale.
        refreshed = tiny_building(seed=56)
        registry.register("b0", refreshed)
        second = registry.get("b0")
        assert second is not first
        assert registry.stats.fits == 2  # refit, not a stale disk load
        assert second.record_ids == tuple(refreshed.record_ids)

    def test_unrecoverable_models_are_pinned_not_evicted(self):
        # add_fitted without a store_dir or registered source: eviction
        # would lose the model forever, so the cache must pin it instead.
        registry = BuildingRegistry(capacity=1, config=TINY_CONFIG)
        dataset_a = tiny_building(seed=46)
        anchor_a = dataset_a.pick_labeled_sample(floor=0)
        fitted_a = FisOne(TINY_CONFIG).fit(dataset_a, anchor_a.record_id)
        registry.add_fitted("a", fitted_a)

        dataset_b = tiny_building(seed=47)
        anchor_b = dataset_b.pick_labeled_sample(floor=0)
        registry.add_fitted("b", FisOne(TINY_CONFIG).fit(dataset_b, anchor_b.record_id))

        assert registry.get("a") is fitted_a
        assert registry.stats.evictions == 0
        assert set(registry.cached_building_ids) == {"a", "b"}


class TestFleetServer:
    def test_serve_batches_across_buildings(self):
        registry = BuildingRegistry(capacity=4, config=TINY_CONFIG)
        datasets = {f"b{i}": tiny_building(seed=50 + i) for i in range(2)}
        for building_id, dataset in datasets.items():
            registry.register(building_id, dataset)
        requests = [
            LabelRequest(
                request_id=f"req-{i}",
                building_id=f"b{i % 2}",
                records=tuple(list(datasets[f"b{i % 2}"])[:3]),
            )
            for i in range(6)
        ]
        with FleetServer(registry, num_workers=2) as server:
            responses = server.serve(requests)
            stats = server.stats()
        assert [response.request_id for response in responses] == [
            request.request_id for request in requests
        ]
        assert all(len(response.labels) == 3 for response in responses)
        assert all(response.latency_s >= 0.0 for response in responses)
        assert stats.num_requests == 6
        assert stats.num_records == 18
        assert 1 <= stats.num_batches <= 6
        assert stats.records_per_second > 0

    def test_batched_labels_match_direct_labeling(self):
        registry = BuildingRegistry(capacity=2, config=TINY_CONFIG)
        dataset = tiny_building(seed=52)
        registry.register("b0", dataset)
        records = list(dataset)[:4]
        direct = OnlineFloorLabeler(registry.get("b0")).label(records)
        with FleetServer(registry, num_workers=2) as server:
            futures = [server.submit("b0", [record]) for record in records]
            served = [future.result(timeout=60).labels[0] for future in futures]
        assert served == direct

    def test_submit_requires_running_server(self):
        registry = BuildingRegistry(config=TINY_CONFIG)
        server = FleetServer(registry)
        with pytest.raises(RuntimeError):
            server.submit("b0", [SignalRecord("r", {"aa": -50.0})])

    def test_unknown_building_error_travels_via_future(self):
        registry = BuildingRegistry(config=TINY_CONFIG)
        with FleetServer(registry, num_workers=1) as server:
            future = server.submit("ghost", [SignalRecord("r", {"aa": -50.0})])
            with pytest.raises(KeyError):
                future.result(timeout=60)

    def test_sustained_traffic_does_not_starve_small_batches(self):
        # A lone request for building B must be served promptly even while
        # building A receives a steady request stream: A's running batches
        # and backlog never hold back another building's flush.
        import time

        registry = BuildingRegistry(capacity=4, config=TINY_CONFIG)
        dataset_a, dataset_b = tiny_building(seed=48), tiny_building(seed=49)
        registry.register("a", dataset_a)
        registry.register("b", dataset_b)
        registry.get("a")
        registry.get("b")  # prefit both so only dispatch latency is measured

        with FleetServer(registry, num_workers=2) as server:
            stop_stream = threading.Event()

            def stream():
                while not stop_stream.is_set():
                    server.submit("a", [list(dataset_a)[0]])
                    time.sleep(0.005)

            streamer = threading.Thread(target=stream, daemon=True)
            streamer.start()
            try:
                time.sleep(0.05)  # the stream is established
                lone = server.submit("b", [list(dataset_b)[0]])
                response = lone.result(timeout=2.0)
                assert len(response.labels) == 1
            finally:
                stop_stream.set()
                streamer.join()


#: Upper bound on any single wait in the dispatch tests.  It only turns a
#: hang into a failure; no assertion depends on how long anything took.
HANG_GUARD_S = 30.0

RECORD = SignalRecord("r", {"aa": -50.0})


class GatedRegistry:
    """A registry stand-in whose ``label`` blocks on a per-building gate.

    Every call is logged as ``(building_id, number of records)`` before the
    gate is waited on, so a test sees exactly which batches the dispatcher
    flushed, and when, without timing anything.
    """

    def __init__(self) -> None:
        self.telemetry = Telemetry()
        self.calls = []
        self.gates = {}
        self._calls_changed = threading.Condition()

    def gate(self, building_id: str) -> threading.Event:
        """Close ``building_id``'s gate; its batches block until it is set."""
        self.gates[building_id] = threading.Event()
        return self.gates[building_id]

    def label(self, building_id, records):
        with self._calls_changed:
            self.calls.append((building_id, len(records)))
            self._calls_changed.notify_all()
        gate = self.gates.get(building_id)
        if gate is not None:
            # Bounded so that a failed assertion, which skips the test's
            # gate.set(), cannot hang the server's stop() forever.
            gate.wait(HANG_GUARD_S)
        return [f"{building_id}:{record.record_id}" for record in records]

    def wait_for_calls(self, count: int) -> None:
        with self._calls_changed:
            assert self._calls_changed.wait_for(
                lambda: len(self.calls) >= count, timeout=HANG_GUARD_S
            ), f"expected {count} label calls, saw {self.calls}"


class ProbedQueue(queue.Queue):
    """A dispatcher queue that reports each time the dispatcher waits on it.

    The dispatcher only blocks on ``get`` once it has acted on everything it
    drained, so a count of blocking gets tells a test when the dispatcher
    has seen a submit and made its flush decision.
    """

    def __init__(self) -> None:
        super().__init__()
        self.timed_gets = 0
        self.waits = 0
        self._waited = threading.Condition()

    def get(self, block=True, timeout=None):
        if block:
            with self._waited:
                self.timed_gets += timeout is not None
                self.waits += 1
                self._waited.notify_all()
        return super().get(block, timeout)

    def wait_for_waits(self, count: int) -> None:
        with self._waited:
            assert self._waited.wait_for(lambda: self.waits >= count, timeout=HANG_GUARD_S)


def results(futures):
    return [future.result(timeout=HANG_GUARD_S) for future in futures]


class TestDispatch:
    """In-flight-gated coalescing, observed through a gated stub registry."""

    def test_lone_request_on_idle_server_flushes_without_a_timer(self):
        registry = GatedRegistry()
        gate = registry.gate("a")
        server = FleetServer(registry, num_workers=2)
        server._queue = ProbedQueue()
        with server:
            future = server.submit("a", [RECORD])
            # No second arrival and no timeout: the request alone reaches
            # the registry.
            registry.wait_for_calls(1)
            assert registry.calls == [("a", 1)]
            gate.set()
            assert len(future.result(timeout=HANG_GUARD_S).labels) == 1
        assert server._queue.timed_gets == 0

    def test_requests_behind_a_running_batch_form_one_next_batch(self):
        registry = GatedRegistry()
        gate = registry.gate("a")
        server = FleetServer(registry, num_workers=2)
        probe = server._queue = ProbedQueue()
        with server:
            first = server.submit("a", [RECORD])
            registry.wait_for_calls(1)
            probe.wait_for_waits(2)  # one wait at start, one after the flush
            backlog = []
            for index in range(5):
                # The dispatcher sits idle on an empty queue, so it sees
                # each request in a pass of its own while the first batch
                # still runs.
                backlog.append(server.submit("a", [RECORD, RECORD]))
                probe.wait_for_waits(3 + index)
            gate.set()
            results([first] + backlog)
            stats = server.stats()
        assert registry.calls == [("a", 1), ("a", 10)]
        assert stats.num_batches == 2
        assert stats.num_requests == 6

    def test_full_backlog_flushes_while_previous_batch_runs(self):
        registry = GatedRegistry()
        gate = registry.gate("a")
        with FleetServer(registry, num_workers=3, max_batch_size=3) as server:
            first = server.submit("a", [RECORD])
            registry.wait_for_calls(1)
            backlog = [server.submit("a", [RECORD]) for _ in range(7)]
            # Two full chunks go out with the first batch still blocked; the
            # one request left over waits for the running batches.
            registry.wait_for_calls(3)
            assert registry.calls == [("a", 1), ("a", 3), ("a", 3)]
            assert not any(future.done() for future in [first] + backlog)
            gate.set()
            results([first] + backlog)
            stats = server.stats()
        assert registry.calls == [("a", 1), ("a", 3), ("a", 3), ("a", 1)]
        assert stats.num_batches == 4

    def test_blocked_building_never_delays_another(self):
        registry = GatedRegistry()
        gate = registry.gate("a")
        with FleetServer(registry, num_workers=2) as server:
            blocked = server.submit("a", [RECORD])
            registry.wait_for_calls(1)
            queued = server.submit("a", [RECORD])
            lone = server.submit("b", [RECORD])
            assert lone.result(timeout=HANG_GUARD_S).labels == ("b:r",)
            assert not blocked.done() and not queued.done()
            gate.set()
            results([blocked, queued])
        assert registry.calls == [("a", 1), ("b", 1), ("a", 1)]

    def test_concurrent_submitters_complete_every_request_once(self):
        registry = GatedRegistry()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FleetServer(registry, num_workers=3, max_batch_size=4) as server:

                def client(thread):
                    futures = []
                    for index in range(200):
                        building_id, record_id = f"b{index % 3}", f"t{thread}-{index}"
                        record = SignalRecord(record_id, {"aa": -50.0})
                        future = server.submit(building_id, [record])
                        futures.append((building_id, record_id, future))
                    return [
                        (building_id, record_id, future.result(timeout=HANG_GUARD_S).labels)
                        for building_id, record_id, future in futures
                    ]

                with ThreadPoolExecutor(max_workers=4) as clients:
                    outcomes = [
                        outcome
                        for done in [clients.submit(client, thread) for thread in range(4)]
                        for outcome in done.result()
                    ]
                stats = server.stats()
        finally:
            sys.setswitchinterval(previous)
        assert len(outcomes) == 800
        assert all(
            labels == (f"{building_id}:{record_id}",)
            for building_id, record_id, labels in outcomes
        )
        assert stats.num_requests == 800
        assert sum(size for _, size in registry.calls) == 800
        assert max(size for _, size in registry.calls) <= 4


class TestDispatchLifecycle:
    @staticmethod
    def stop_while_busy(server, registry, gate):
        """Stop with one batch running and three requests queued behind it."""
        futures = [server.submit("a", [RECORD])]
        registry.wait_for_calls(len(registry.calls) + 1)
        futures += [server.submit("a", [RECORD]) for _ in range(3)]
        completions = Counter()
        for index, future in enumerate(futures):
            future.add_done_callback(lambda _, index=index: completions.update([index]))
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        gate.set()
        stopper.join(timeout=HANG_GUARD_S)
        assert not stopper.is_alive()
        return futures, completions

    def test_stop_completes_running_batch_and_backlog_exactly_once(self):
        registry = GatedRegistry()
        gate = registry.gate("a")
        server = FleetServer(registry, num_workers=2).start()
        futures, completions = self.stop_while_busy(server, registry, gate)
        assert all(future.done() for future in futures)
        assert [len(future.result().labels) for future in futures] == [1, 1, 1, 1]
        assert completions == {index: 1 for index in range(4)}
        assert registry.calls == [("a", 1), ("a", 3)]
        assert server.stats().num_batches == 2
        # Every completion token was consumed before the dispatcher exited.
        assert server._queue.empty()

    def test_restart_inherits_no_completion_tokens_or_inflight_counts(self):
        registry = GatedRegistry()
        gate = registry.gate("a")
        server = FleetServer(registry, num_workers=2).start()
        self.stop_while_busy(server, registry, gate)
        gate.clear()
        with server.start():
            # A stale in-flight count would hold this lone request back.
            first = server.submit("a", [RECORD])
            registry.wait_for_calls(3)
            # A stale token would release part of this backlog early.
            backlog = [server.submit("a", [RECORD]) for _ in range(2)]
            gate.set()
            results([first] + backlog)
        assert registry.calls[2:] == [("a", 1), ("a", 2)]
        assert server.stats().num_batches == 4
