"""The RF-GNN training step: determinism and RNG-stream contracts.

There is one training step (per-epoch batch tensors, ``np.bincount``
gradient scatters, dense Adam).  Two trainers built with the same seed must
agree on every output bit, and the consume-only RNG advance of
``fit(return_embeddings=False)`` must leave the sampler exactly where the
discarded embedding pass would have.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import RFGNNConfig
from repro.gnn.trainer import RFGNNTrainer
from repro.graph.bipartite import BipartiteGraph

CONFIGS = [
    pytest.param(RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(8, 4)), id="attention"),
    pytest.param(
        RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(6, 3), attention=False),
        id="uniform",
    ),
    pytest.param(
        RFGNNConfig(
            embedding_dim=12,
            neighbor_sample_sizes=(5,),
            num_hops=1,
            train_node_features=False,
        ),
        id="frozen-features-1hop",
    ),
]


class TestSameSeedSameBits:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_losses_weights_and_features_bit_identical(self, small_building_dataset, config):
        """A batch size that does not divide the pair cap leaves a ragged tail
        batch every epoch, so both the slab-deduplicated full batches and the
        ``np.unique`` tail path run."""
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        kwargs = dict(seed=5, num_epochs=2, batch_size=96, max_pairs_per_epoch=1_000)
        # Every epoch hits the pair cap, and 1000 pairs leave a 40-pair tail.
        assert RFGNNTrainer(graph, config, **kwargs).walker.positive_pairs().shape[0] > 1_000
        first = RFGNNTrainer(graph, config, **kwargs)
        second = RFGNNTrainer(graph, config, **kwargs)
        first_embeddings = first.fit()
        second_embeddings = second.fit()
        assert len(first.history.epoch_losses) == 2
        assert first.history.epoch_losses == second.history.epoch_losses
        for first_weight, second_weight in zip(first.model.weights, second.model.weights):
            assert np.array_equal(first_weight, second_weight)
        assert np.array_equal(first.model.node_features, second.model.node_features)
        assert np.array_equal(first_embeddings, second_embeddings)

    def test_frozen_features_never_move(self, small_building_dataset):
        config = RFGNNConfig(
            embedding_dim=8, neighbor_sample_sizes=(6, 3), train_node_features=False
        )
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        trainer = RFGNNTrainer(graph, config, seed=2, num_epochs=1, max_pairs_per_epoch=1_000)
        initial = trainer.model.node_features.copy()
        trainer.fit(return_embeddings=False)
        assert np.array_equal(trainer.model.node_features, initial)


class TestConsumeOnlyRngAdvance:
    def test_fit_without_embeddings_keeps_stream_position(
        self, small_building_dataset
    ):
        """``fit(return_embeddings=False)`` must leave the sampler RNG exactly
        where the discarded embedding pass would have — embeddings computed
        *afterwards* (as the pipeline does, with inference sample sizes)
        depend on that stream position bit-for-bit."""
        config = RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(8, 4))
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        with_pass = RFGNNTrainer(
            graph, config, seed=3, num_epochs=1, max_pairs_per_epoch=4_000
        )
        without_pass = RFGNNTrainer(
            graph, config, seed=3, num_epochs=1, max_pairs_per_epoch=4_000
        )
        with_pass.fit(return_embeddings=True)
        assert without_pass.fit(return_embeddings=False) is None
        after_with = with_pass.model.embed_nodes(sample_sizes=(12, 6))
        after_without = without_pass.model.embed_nodes(sample_sizes=(12, 6))
        assert np.array_equal(after_with, after_without)


class TestEmbedNodesConfigIsolation:
    def test_embed_nodes_does_not_mutate_model_config(self, small_building_dataset):
        """Inference-time sample-size overrides must not leak into the model's
        training configuration (the old implementation swapped self.config
        and restored it, which was not concurrency- or exception-safe)."""
        config = RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(6, 3))
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        trainer = RFGNNTrainer(
            graph, config, seed=1, num_epochs=1, max_pairs_per_epoch=2_000
        )
        trainer.fit(return_embeddings=False)
        before = trainer.model.config
        trainer.model.embed_nodes(sample_sizes=(10, 5), num_hops=2)
        assert trainer.model.config is before
        assert trainer.model.config.neighbor_sample_sizes == (6, 3)
