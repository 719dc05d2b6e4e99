"""Equivalence tests for the frozen CSR graph core vs the mutable builder.

The refactor's contract: ``CSRGraph.from_dataset`` (vectorised),
``BipartiteGraph.from_dataset(...).freeze()`` (builder then freeze), and the
builder's own adjacency must describe the *same* graph — node ids, neighbour
order, weights, degrees — on arbitrary datasets, including duplicate-MAC and
single-reading edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.alias import (
    AliasTables,
    _ROW_SUM_MATCH_BY_DEGREE,
    _segment_totals,
)
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import CSRGraph, MAC_KIND, SAMPLE_KIND
from repro.signals.dataset import SignalDataset
from repro.signals.record import SignalRecord

#: Small MAC alphabet so random datasets share MACs across records often.
MAC_POOL = [f"mac-{i:02d}" for i in range(12)]


@st.composite
def random_datasets(draw):
    """Random small datasets with shared MACs and single-reading records."""
    num_records = draw(st.integers(min_value=1, max_value=10))
    records = []
    for index in range(num_records):
        num_readings = draw(st.integers(min_value=1, max_value=6))
        macs = draw(
            st.lists(
                st.sampled_from(MAC_POOL),
                min_size=num_readings,
                max_size=num_readings,
                unique=True,
            )
        )
        readings = {
            mac: draw(st.floats(min_value=-119.0, max_value=-1.0)) for mac in macs
        }
        records.append(SignalRecord(f"r{index}", readings))
    return SignalDataset(records, building_id="prop")


def assert_graphs_equal(frozen: CSRGraph, builder: BipartiteGraph) -> None:
    """The frozen CSR view must agree with the builder adjacency exactly."""
    assert frozen.num_nodes == builder.num_nodes
    assert frozen.num_edges == builder.num_edges
    assert np.array_equal(frozen.degrees(), builder.degrees())
    assert np.array_equal(frozen.mac_ids, builder.mac_ids)
    assert np.array_equal(frozen.sample_ids, builder.sample_ids)
    for node_id in range(builder.num_nodes):
        node = builder.node(node_id)
        assert frozen.node(node_id) == node
        assert frozen.node_id(node.kind, node.key) == node_id
        assert frozen.neighbors(node_id) == builder.neighbors(node_id)
        assert frozen.neighbor_weights(node_id) == builder.neighbor_weights(node_id)
        csr_neighbors, csr_weights = frozen.neighbor_arrays(node_id)
        builder_neighbors, builder_weights = builder.neighbor_arrays(node_id)
        assert np.array_equal(csr_neighbors, builder_neighbors)
        assert np.array_equal(csr_weights, builder_weights)


class TestEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(dataset=random_datasets())
    def test_frozen_view_agrees_with_builder(self, dataset):
        builder = BipartiteGraph.from_dataset(dataset)
        assert_graphs_equal(builder.freeze(), builder)

    @settings(max_examples=50, deadline=None)
    @given(dataset=random_datasets())
    def test_vectorized_build_equals_builder_freeze(self, dataset):
        frozen = BipartiteGraph.from_dataset(dataset).freeze()
        vectorized = CSRGraph.from_dataset(dataset)
        assert np.array_equal(vectorized.indptr, frozen.indptr)
        assert np.array_equal(vectorized.indices, frozen.indices)
        assert np.array_equal(vectorized.weights, frozen.weights)
        assert np.array_equal(vectorized.kinds, frozen.kinds)
        assert list(vectorized.keys) == list(frozen.keys)

    def test_single_reading_dataset(self):
        dataset = SignalDataset([SignalRecord("only", {"aa": -50.0})])
        frozen = CSRGraph.from_dataset(dataset)
        assert frozen.num_nodes == 2
        assert frozen.num_edges == 1
        assert frozen.neighbors(frozen.sample_node_id("only")) == [
            frozen.mac_node_id("aa")
        ]
        assert_graphs_equal(frozen, BipartiteGraph.from_dataset(dataset))

    def test_duplicate_mac_across_records(self):
        dataset = SignalDataset(
            [
                SignalRecord("r0", {"aa": -40.0}),
                SignalRecord("r1", {"aa": -60.0, "bb": -70.0}),
                SignalRecord("r2", {"bb": -45.0, "aa": -55.0}),
            ]
        )
        frozen = CSRGraph.from_dataset(dataset)
        mac = frozen.mac_node_id("aa")
        # One edge per observing record, in record order.
        assert frozen.neighbors(mac) == [
            frozen.sample_node_id("r0"),
            frozen.sample_node_id("r1"),
            frozen.sample_node_id("r2"),
        ]
        assert frozen.neighbor_weights(mac) == [80.0, 60.0, 65.0]
        assert_graphs_equal(frozen, BipartiteGraph.from_dataset(dataset))

    def test_non_positive_weight_rejected(self):
        dataset = SignalDataset([SignalRecord("r0", {"aa": -120.0})])
        with pytest.raises(ValueError, match="not positive"):
            CSRGraph.from_dataset(dataset)


class TestFreezeLifecycle:
    def test_freeze_is_cached_until_mutation(self, tiny_dataset):
        builder = BipartiteGraph.from_dataset(tiny_dataset)
        first = builder.freeze()
        assert builder.freeze() is first
        builder.add_record(SignalRecord("new", {"aa": -60.0, "zz": -70.0}))
        second = builder.freeze()
        assert second is not first
        assert second.num_nodes == first.num_nodes + 2
        assert_graphs_equal(second, builder)

    def test_frozen_graph_freeze_is_identity(self, tiny_dataset):
        frozen = CSRGraph.from_dataset(tiny_dataset)
        assert frozen.freeze() is frozen

    def test_thaw_round_trip(self, tiny_dataset):
        frozen = CSRGraph.from_dataset(tiny_dataset)
        builder = frozen.thaw()
        assert_graphs_equal(frozen, builder)
        # Thawed builders support dynamic growth and re-freeze cleanly.
        builder.add_record(SignalRecord("online", {"aa": -58.0, "new-ap": -72.0}))
        regrown = builder.freeze()
        assert regrown.sample_node_id("online") == frozen.num_nodes
        assert regrown.num_edges == frozen.num_edges + 2
        assert_graphs_equal(regrown, builder)

    def test_cached_id_arrays(self, tiny_dataset):
        builder = BipartiteGraph.from_dataset(tiny_dataset)
        assert builder.sample_ids is builder.sample_ids  # cached, not rebuilt
        frozen = builder.freeze()
        assert frozen.sample_ids.dtype == np.int64
        assert frozen.mac_ids.dtype == np.int64
        assert np.array_equal(
            np.sort(np.concatenate([frozen.mac_ids, frozen.sample_ids])),
            np.arange(frozen.num_nodes),
        )
        assert np.all(frozen.kinds[frozen.mac_ids] == MAC_KIND)
        assert np.all(frozen.kinds[frozen.sample_ids] == SAMPLE_KIND)


class TestSharedAliasTables:
    def test_tables_built_once_per_graph(self, tiny_dataset):
        frozen = CSRGraph.from_dataset(tiny_dataset)
        weighted = frozen.alias_tables(uniform=False)
        assert frozen.alias_tables(uniform=False) is weighted
        uniform = frozen.alias_tables(uniform=True)
        assert uniform is not weighted
        assert frozen.alias_tables(uniform=True) is uniform

    def test_tables_match_per_node_construction(self, tiny_dataset):
        builder = BipartiteGraph.from_dataset(tiny_dataset)
        frozen = builder.freeze()
        shared = frozen.alias_tables(uniform=False)
        legacy = AliasTables.from_neighbor_lists(
            [builder.neighbor_arrays(i)[0] for i in range(builder.num_nodes)],
            [builder.neighbor_arrays(i)[1] for i in range(builder.num_nodes)],
            uniform=False,
        )
        assert np.array_equal(shared.degrees, legacy.degrees)
        assert np.array_equal(shared.neighbors, legacy.neighbors)
        assert np.array_equal(shared.weights, legacy.weights)
        assert np.array_equal(shared.prob, legacy.prob)
        assert np.array_equal(shared.alias, legacy.alias)

    def test_zero_degree_node_rejected(self):
        with pytest.raises(ValueError, match="no neighbours"):
            AliasTables.from_csr(
                np.array([0, 1, 1]), np.array([1]), np.array([2.0]), uniform=False
            )


class TestVectorizedMatrixViews:
    def test_adjacency_matrix_matches_explicit_loop(self, tiny_dataset):
        frozen = CSRGraph.from_dataset(tiny_dataset)
        expected = np.zeros((frozen.num_nodes, frozen.num_nodes))
        for node_id in range(frozen.num_nodes):
            for neighbor, weight in zip(
                frozen.neighbors(node_id), frozen.neighbor_weights(node_id)
            ):
                expected[node_id, neighbor] = weight
        assert np.array_equal(frozen.adjacency_matrix(), expected)

    def test_sample_feature_matrix_matches_explicit_loop(self, tiny_dataset):
        frozen = CSRGraph.from_dataset(tiny_dataset)
        features = frozen.sample_feature_matrix(tiny_dataset)
        mac_column = {str(frozen.keys[mac]): col for col, mac in enumerate(frozen.mac_ids)}
        expected = np.full((len(tiny_dataset), len(mac_column)), -120.0)
        for row, record in enumerate(tiny_dataset):
            for mac, rss in record.readings.items():
                expected[row, mac_column[mac]] = rss
        # With the dataset given, the raw readings are scattered bit-exactly.
        assert np.array_equal(features, expected)
        assert features.shape == (len(tiny_dataset), len(tiny_dataset.macs))
        # Without it, the RSS is recovered from the edge weights (ulp-close).
        assert np.allclose(frozen.sample_feature_matrix(), expected)

    def test_sample_feature_matrix_rejects_mismatched_dataset(self, tiny_dataset):
        frozen = CSRGraph.from_dataset(tiny_dataset)
        smaller = tiny_dataset.subset(lambda record: record.record_id != "r0")
        with pytest.raises(ValueError, match="sample nodes"):
            frozen.sample_feature_matrix(smaller)


class TestSegmentTotals:
    """The vectorised per-node totals behind AliasTables.from_csr."""

    @staticmethod
    def _random_csr(seed, num_nodes=500, max_degree=30):
        rng = np.random.default_rng(seed)
        degrees = rng.integers(1, max_degree + 1, num_nodes)
        indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        weights = (rng.random(indptr[-1]) + 1e-3).astype(np.float64)
        return indptr, np.diff(indptr), weights

    def test_bit_identical_to_scalar_slice_sums(self):
        for seed in range(5):
            indptr, degrees, weights = self._random_csr(seed)
            expected = np.array(
                [
                    weights[indptr[node] : indptr[node + 1]].sum()
                    for node in range(degrees.shape[0])
                ]
            )
            assert np.array_equal(_segment_totals(weights, indptr, degrees), expected)

    def test_scalar_fallback_stays_bit_identical(self, monkeypatch):
        # Force the probe verdict to "regrouped" for every degree: the
        # fallback path must still reproduce the slice sums exactly.
        monkeypatch.setattr(
            "repro.graph.alias._row_sums_match_slice_sums", lambda degree: False
        )
        indptr, degrees, weights = self._random_csr(7)
        expected = np.array(
            [
                weights[indptr[node] : indptr[node + 1]].sum()
                for node in range(degrees.shape[0])
            ]
        )
        assert np.array_equal(_segment_totals(weights, indptr, degrees), expected)

    def test_from_csr_reports_first_nonpositive_node(self):
        indptr = np.array([0, 2, 4, 6], dtype=np.int64)
        indices = np.array([1, 2, 0, 2, 0, 1], dtype=np.int64)
        weights = np.array([1.0, 1.0, 0.0, 0.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="node 1"):
            AliasTables.from_csr(indptr, indices, weights)

    def test_probe_cache_is_populated(self):
        _ROW_SUM_MATCH_BY_DEGREE.clear()
        indptr, degrees, weights = self._random_csr(11, num_nodes=50, max_degree=9)
        _segment_totals(weights, indptr, degrees)
        probed = set(_ROW_SUM_MATCH_BY_DEGREE)
        assert probed == {int(d) for d in np.unique(degrees) if d > 1}
