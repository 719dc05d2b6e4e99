"""SharedArrayStore: refcounts, hygiene, and bit-identical shared loads."""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core import FisOne
from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import load_artifacts, save_artifacts
from repro.serving.bundle import BundleError, pack_bundle
from repro.serving.shared_store import SharedArrayStore, SharedStoreError

FAST_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=2,
    max_pairs_per_epoch=8_000,
    inference_passes=1,
    inference_sample_sizes=(20, 10),
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX shared-memory filesystem"
)


def shm_segments(prefix: str):
    return [name for name in os.listdir("/dev/shm") if name.startswith(f"{prefix}-")]


@pytest.fixture
def prefix(request):
    """A per-test segment prefix, swept clean afterwards no matter what."""
    value = f"fisone-test-{os.getpid()}-{request.node.name[:24]}"
    yield value
    SharedArrayStore.sweep(value)


def sample_arrays():
    return {
        "matrix": np.arange(24, dtype=np.float64).reshape(4, 6),
        "ints": np.arange(7, dtype=np.int64),
        "token": np.array("cafebabe"),  # 0-d unicode, like the save token
    }


def sample_bundle():
    return pack_bundle(sample_arrays())


class TestPublishAttach:
    def test_roundtrip_preserves_values_dtypes_and_shapes(self, prefix):
        arrays = sample_arrays()
        with SharedArrayStore(prefix=prefix) as store:
            views = store.publish("bundle", pack_bundle(arrays))
            for name, original in arrays.items():
                assert views[name].dtype == original.dtype
                assert views[name].shape == original.shape
                assert np.array_equal(views[name], original)

    def test_views_are_read_only(self, prefix):
        with SharedArrayStore(prefix=prefix) as store:
            views = store.publish("bundle", sample_bundle())
            with pytest.raises((ValueError, RuntimeError)):
                views["matrix"][0, 0] = 99.0

    def test_attach_returns_none_for_unknown_bundle(self, prefix):
        with SharedArrayStore(prefix=prefix) as store:
            assert store.attach("never-published") is None

    def test_object_dtype_is_rejected(self):
        with pytest.raises(BundleError, match="object dtype"):
            pack_bundle({"keys": np.array(["a", "b"], dtype=object)})

    def test_malformed_bundle_is_never_published(self, prefix):
        with SharedArrayStore(prefix=prefix) as store:
            with pytest.raises(BundleError, match="bad magic"):
                store.publish("bad", b"not an array bundle")
            assert shm_segments(prefix) == []

    def test_get_or_publish_runs_producer_exactly_once(self, prefix):
        calls = []

        def producer():
            calls.append(1)
            return sample_bundle()

        with SharedArrayStore(prefix=prefix) as store:
            first = store.get_or_publish("bundle", producer)
            second = store.get_or_publish("bundle", producer)
            assert len(calls) == 1
            assert np.array_equal(first["matrix"], second["matrix"])

    def test_cross_process_attach_sees_same_values(self, prefix):
        def child(queue):
            with SharedArrayStore(prefix=prefix, unlink_on_close=False) as store:
                views = store.attach("bundle")
                queue.put(
                    None
                    if views is None
                    else (float(views["matrix"].sum()), str(views["token"].item()))
                )

        with SharedArrayStore(prefix=prefix) as store:
            store.publish("bundle", sample_bundle())
            context = multiprocessing.get_context("fork")
            queue = context.Queue()
            process = context.Process(target=child, args=(queue,))
            process.start()
            payload = queue.get(timeout=30)
            process.join(timeout=30)
        assert payload == (float(sample_arrays()["matrix"].sum()), "cafebabe")


class TestRefcounts:
    def test_attach_detach_balance(self, prefix):
        with SharedArrayStore(prefix=prefix) as store:
            store.publish("bundle", sample_bundle())
            assert store.refcount("bundle") == 1
            store.attach("bundle")
            store.attach("bundle")
            assert store.refcount("bundle") == 3
            store.detach("bundle")
            assert store.refcount("bundle") == 2
            store.detach("bundle")
            store.detach("bundle")
            assert store.refcount("bundle") == 0

    def test_detach_unattached_raises(self, prefix):
        with SharedArrayStore(prefix=prefix) as store:
            with pytest.raises(SharedStoreError, match="not attached"):
                store.detach("bundle")

    def test_owner_detach_to_zero_unlinks(self, prefix):
        store = SharedArrayStore(prefix=prefix)
        store.publish("bundle", sample_bundle())
        assert len(shm_segments(prefix)) == 1
        store.detach("bundle")
        assert shm_segments(prefix) == []
        store.close()


class TestLifecycleHygiene:
    def test_close_unlinks_owned_segments(self, prefix):
        store = SharedArrayStore(prefix=prefix)
        store.publish("one", sample_bundle())
        store.publish("two", pack_bundle({"x": np.ones(3)}))
        assert len(shm_segments(prefix)) == 2
        store.close()
        assert shm_segments(prefix) == []

    def test_close_is_idempotent_and_rejects_further_use(self, prefix):
        store = SharedArrayStore(prefix=prefix)
        store.publish("bundle", sample_bundle())
        store.close()
        store.close()
        with pytest.raises(SharedStoreError, match="closed"):
            store.publish("bundle", sample_bundle())

    def test_attacher_close_leaves_segment_for_siblings(self, prefix):
        owner = SharedArrayStore(prefix=prefix, unlink_on_close=False)
        owner.publish("bundle", sample_bundle())
        attacher = SharedArrayStore(prefix=prefix)
        assert attacher.attach("bundle") is not None
        attacher.close()  # not the creator: must not unlink
        assert len(shm_segments(prefix)) == 1
        owner.close()

    def test_crashed_worker_leaks_segment_and_sweep_reaps_it(self, prefix):
        """A SIGKILLed publisher cannot run atexit; sweep() is the backstop."""

        def crasher():
            store = SharedArrayStore(prefix=prefix, unlink_on_close=False)
            store.publish("crashy", pack_bundle({"x": np.ones(8)}))
            os.kill(os.getpid(), signal.SIGKILL)

        context = multiprocessing.get_context("fork")
        process = context.Process(target=crasher)
        process.start()
        process.join(timeout=30)
        assert process.exitcode == -signal.SIGKILL
        assert len(shm_segments(prefix)) == 1, "crash should leak exactly one segment"
        removed = SharedArrayStore.sweep(prefix)
        assert len(removed) == 1
        assert shm_segments(prefix) == []

    def test_sweep_ignores_other_prefixes(self, prefix):
        other = f"{prefix}x"  # shares a textual prefix but not the namespace
        with SharedArrayStore(prefix=other) as neighbour:
            neighbour.publish("bundle", pack_bundle({"x": np.ones(2)}))
            assert SharedArrayStore.sweep(prefix) == []
            assert len(shm_segments(other)) == 1


class TestArtifactIntegration:
    @pytest.fixture(scope="class")
    def fitted_and_stream(self):
        from repro.simulate import generate_single_building

        labeled = generate_single_building(num_floors=3, samples_per_floor=25, seed=21)
        train, stream = labeled.holdout_split(train_per_floor=18)
        anchor = train.pick_labeled_sample(floor=0)
        observed = train.strip_labels(keep_record_ids=[anchor.record_id])
        fitted = FisOne(FAST_CONFIG).fit(observed, anchor.record_id)
        return fitted, observed, [record.without_floor() for record in stream]

    def test_labels_bit_identical_shared_vs_private(
        self, fitted_and_stream, tmp_path, prefix
    ):
        fitted, observed, stream = fitted_and_stream
        save_artifacts(fitted, tmp_path / "model")
        private = load_artifacts(tmp_path / "model")
        with SharedArrayStore(prefix=prefix) as store:
            shared = load_artifacts(tmp_path / "model", shared_store=store)
            assert np.array_equal(private.result.embeddings, shared.result.embeddings)
            assert np.array_equal(private.centroids, shared.centroids)
            for a, b in zip(private.online_floors(stream), shared.online_floors(stream)):
                assert np.array_equal(a, b)
            assert np.array_equal(private.predict(observed), shared.predict(observed))

    def test_second_load_attaches_one_physical_copy(
        self, fitted_and_stream, tmp_path, prefix
    ):
        fitted, _, _ = fitted_and_stream
        save_artifacts(fitted, tmp_path / "model")
        with SharedArrayStore(prefix=prefix) as store:
            first = load_artifacts(tmp_path / "model", shared_store=store)
            assert len(shm_segments(prefix)) == 1
            second = load_artifacts(tmp_path / "model", shared_store=store)
            assert len(shm_segments(prefix)) == 1, "second load must attach, not copy"
            assert np.shares_memory(first.centroids, second.centroids)
            (bundle,) = list(store._bundles)
            assert store.refcount(bundle) == 2

    def test_resave_gets_a_fresh_bundle(self, fitted_and_stream, tmp_path, prefix):
        """A new save token must never alias the previous generation's arrays."""
        fitted, _, _ = fitted_and_stream
        save_artifacts(fitted, tmp_path / "model")
        with SharedArrayStore(prefix=prefix) as store:
            load_artifacts(tmp_path / "model", shared_store=store)
            save_artifacts(fitted, tmp_path / "model")  # fresh token
            load_artifacts(tmp_path / "model", shared_store=store)
            assert len(store._bundles) == 2
