"""Seed-stability regression test pinning the pipeline's exact outputs.

The golden values below were produced by the pre-refactor (list-backed
graph) implementation on a fixed-seed simulated building.  The CSR graph
core, the shared alias tables, and the vectorised graph build are all
required to leave every random stream untouched, so the refactored pipeline
must reproduce these outputs *byte for byte* — floor labels, cluster order,
and the embedding matrix (pinned via its SHA-256).

If an intentional change to the pipeline's randomness lands (new RNG
consumer, different walk schedule, ...), regenerate the goldens with the
helper at the bottom of this file and say so in the commit message.
"""

import hashlib

import numpy as np
import pytest

from repro.core import FisOne
from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.signals.record import SignalRecord
from repro.simulate import generate_single_building

#: Building generation seed (3 floors x 25 samples).
BUILDING_SEED = 17

#: Expected predicted floor per record, in dataset record order.
GOLDEN_FLOOR_LABELS = [0] * 25 + [1] * 25 + [2] * 25

#: Expected cluster visit order from the spillover TSP indexing.
GOLDEN_CLUSTER_ORDER = [0, 1, 2]

#: SHA-256 of the (75, 16) float64 embedding matrix bytes, recorded with the
#: NumPy build below.  Byte-exactness across *code changes* is the contract;
#: across NumPy builds/CPU kernels the BLAS dispatch may differ by ULPs, so
#: the hash is only asserted when the running NumPy matches the recording.
GOLDEN_EMBEDDINGS_SHA256 = (
    "d9798f3d754ede06d42dee6dc39624d61b533010ebd1f4b0f8eedc379f176640"
)
GOLDEN_NUMPY_VERSION = "2.4"

#: First four coordinates of the first embedding row (quick human-readable
#: check when the hash mismatches).
GOLDEN_FIRST_ROW_PREFIX = [0.21406357, 0.26516586, 0.23651805, -0.31041388]

#: (source floor, position in the observed dataset) of the records cloned as
#: deterministic growth material for the refresh golden below.
GOLDEN_REFRESH_SOURCES = [(0, 3), (0, 7), (1, 28), (1, 33), (2, 55), (2, 61)]

#: Expected floor label of each cloned record after a fixed-seed
#: ``refresh(fine_tune_epochs=1)`` — each clone must land on its source's
#: floor, and every pre-refresh record must keep its label exactly.
GOLDEN_REFRESH_NEW_LABELS = [0, 0, 1, 1, 2, 2]


def golden_config() -> FisOneConfig:
    return FisOneConfig(
        gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
        num_epochs=3,
        max_pairs_per_epoch=15_000,
        inference_passes=2,
        inference_sample_sizes=(30, 15),
        seed=0,
    )


@pytest.fixture(scope="module")
def golden_result():
    labeled = generate_single_building(
        num_floors=3, samples_per_floor=25, seed=BUILDING_SEED
    )
    anchor = labeled.pick_labeled_sample(floor=0)
    observed = labeled.strip_labels(keep_record_ids=[anchor.record_id])
    return FisOne(golden_config()).fit_predict(
        observed, anchor.record_id, labeled_floor=0
    )


@pytest.fixture(scope="module")
def golden_refresh():
    """A fixed-seed fit grown by six cloned records and refreshed once."""
    labeled = generate_single_building(
        num_floors=3, samples_per_floor=25, seed=BUILDING_SEED
    )
    anchor = labeled.pick_labeled_sample(floor=0)
    observed = labeled.strip_labels(keep_record_ids=[anchor.record_id])
    fitted = FisOne(golden_config()).fit(observed, anchor.record_id, labeled_floor=0)
    new_records = [
        SignalRecord(f"golden-new-{index}", dict(observed[position].readings))
        for index, (_, position) in enumerate(GOLDEN_REFRESH_SOURCES)
    ]
    return fitted, fitted.refresh(new_records, fine_tune_epochs=1)


class TestGoldenPipeline:
    def test_floor_labels_unchanged(self, golden_result):
        assert golden_result.floor_labels.tolist() == GOLDEN_FLOOR_LABELS

    def test_cluster_order_unchanged(self, golden_result):
        assert [
            int(cluster) for cluster in golden_result.indexing.cluster_order
        ] == GOLDEN_CLUSTER_ORDER

    def test_embeddings_byte_identical(self, golden_result):
        embeddings = golden_result.embeddings
        assert embeddings.shape == (75, 16)
        assert embeddings.dtype == np.float64
        assert np.allclose(
            embeddings[0, :4], GOLDEN_FIRST_ROW_PREFIX, atol=1e-8
        ), "embedding values drifted — the random streams changed"
        if not np.__version__.startswith(GOLDEN_NUMPY_VERSION):
            pytest.skip(
                f"byte-exact hash recorded with numpy {GOLDEN_NUMPY_VERSION}.x, "
                f"running {np.__version__}; value-level checks above still ran"
            )
        digest = hashlib.sha256(np.ascontiguousarray(embeddings).tobytes()).hexdigest()
        assert digest == GOLDEN_EMBEDDINGS_SHA256


class TestGoldenRefresh:
    """Seed-stability of the incremental-refresh path.

    The warm-start fine-tune, the seeded re-clustering, and the
    label-stable floor matching are all driven by the same pinned RNG
    streams, so the refresh of a fixed-seed fit over fixed growth material
    must reproduce these outputs exactly.
    """

    def test_fit_matches_fit_predict_goldens(self, golden_refresh):
        # fit() shares the pipeline run with fit_predict(), so the fitted
        # model must carry the very same golden labels.
        fitted, _ = golden_refresh
        assert fitted.floor_labels.tolist() == GOLDEN_FLOOR_LABELS

    def test_old_record_labels_survive_refresh_identically(self, golden_refresh):
        fitted, result = golden_refresh
        num_old = len(fitted.record_ids)
        refreshed_old = result.fitted.result.floor_labels[:num_old]
        assert refreshed_old.tolist() == GOLDEN_FLOOR_LABELS
        assert np.array_equal(refreshed_old, fitted.floor_labels)
        assert result.report.label_stability == 1.0

    def test_new_record_labels_unchanged(self, golden_refresh):
        _, result = golden_refresh
        num_new = len(GOLDEN_REFRESH_SOURCES)
        new_labels = result.fitted.result.floor_labels[-num_new:]
        assert new_labels.tolist() == GOLDEN_REFRESH_NEW_LABELS
        # ... and each clone landed on its source record's floor.
        assert [floor for floor, _ in GOLDEN_REFRESH_SOURCES] == (
            GOLDEN_REFRESH_NEW_LABELS
        )

    def test_refresh_metadata_pinned(self, golden_refresh):
        _, result = golden_refresh
        assert result.fitted.model_version == 1
        assert result.report.floor_mapping_source == "matched"
        assert result.report.num_new_records == len(GOLDEN_REFRESH_SOURCES)
        assert result.report.num_new_macs == 0


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    labeled = generate_single_building(
        num_floors=3, samples_per_floor=25, seed=BUILDING_SEED
    )
    anchor = labeled.pick_labeled_sample(floor=0)
    observed = labeled.strip_labels(keep_record_ids=[anchor.record_id])
    result = FisOne(golden_config()).fit_predict(observed, anchor.record_id, 0)
    print("GOLDEN_FLOOR_LABELS =", result.floor_labels.tolist())
    print("GOLDEN_CLUSTER_ORDER =", [int(c) for c in result.indexing.cluster_order])
    print(
        "GOLDEN_EMBEDDINGS_SHA256 =",
        hashlib.sha256(np.ascontiguousarray(result.embeddings).tobytes()).hexdigest(),
    )
    print("GOLDEN_FIRST_ROW_PREFIX =", result.embeddings[0, :4].tolist())
