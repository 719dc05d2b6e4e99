"""Tests for the RF-GNN encoder: samplers, aggregators, model, loss and trainer."""

import numpy as np
import pytest

from repro.gnn.aggregators import MeanAggregator, WeightedAggregator, get_aggregator
from repro.gnn.loss import negative_sampling_loss
from repro.gnn.model import RFGNN, RFGNNConfig
from repro.gnn.samplers import NeighborSampler, SampledNeighborhood
from repro.gnn.trainer import RFGNNTrainer
from repro.graph.bipartite import BipartiteGraph
from repro.nn.activations import sigmoid


@pytest.fixture
def tiny_graph(tiny_dataset):
    return BipartiteGraph.from_dataset(tiny_dataset)


class TestConfig:
    def test_defaults(self):
        config = RFGNNConfig()
        assert config.num_hops == 2
        assert config.attention is True
        assert config.resolved_input_dim == config.embedding_dim

    def test_input_dim_override(self):
        assert RFGNNConfig(embedding_dim=16, input_dim=8).resolved_input_dim == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            RFGNNConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            RFGNNConfig(num_hops=2, neighbor_sample_sizes=(5,))
        with pytest.raises(ValueError):
            RFGNNConfig(neighbor_sample_sizes=(0, 5))


class TestSampler:
    def test_shapes(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, seed=0)
        sampled = sampler.sample([0, 1, 2], 4)
        assert sampled.neighbors.shape == (3, 4)
        assert sampled.edge_weights.shape == (3, 4)

    def test_sampled_nodes_are_neighbors(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, seed=0)
        target = tiny_graph.sample_node_id("r1")
        sampled = sampler.sample([target], 20)
        assert set(sampled.neighbors.reshape(-1).tolist()) <= set(tiny_graph.neighbors(target))

    def test_full_neighborhood(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, seed=0)
        target = tiny_graph.sample_node_id("r1")
        full = sampler.full_neighborhood(target)
        assert full.neighbors.shape[1] == tiny_graph.degree(target)

    def test_weighted_prefers_strong_edges(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, weighted=True, seed=0)
        target = tiny_graph.sample_node_id("r1")  # readings -42, -60, -80
        strong_mac = tiny_graph.mac_node_id("aa")
        weak_mac = tiny_graph.mac_node_id("cc")
        sampled = sampler.sample([target], 3000).neighbors.reshape(-1)
        assert np.sum(sampled == strong_mac) > np.sum(sampled == weak_mac)

    def test_validation(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph)
        with pytest.raises(ValueError):
            sampler.sample([0], 0)

    def test_neighborhood_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampledNeighborhood(neighbors=np.zeros((2, 3)), edge_weights=np.zeros((2, 4)))


class TestAggregators:
    def test_weighted_coefficients(self):
        weights = np.array([[1.0, 3.0], [2.0, 2.0]])
        coefficients = WeightedAggregator().coefficients(weights)
        assert np.allclose(coefficients.sum(axis=1), 1.0)
        assert coefficients[0, 1] == pytest.approx(0.75)

    def test_mean_coefficients(self):
        weights = np.array([[1.0, 3.0, 5.0]])
        coefficients = MeanAggregator().coefficients(weights)
        assert np.allclose(coefficients, 1.0 / 3.0)

    def test_weighted_rejects_non_positive(self):
        with pytest.raises(ValueError):
            WeightedAggregator().coefficients(np.array([[0.0, 1.0]]))

    def test_lookup(self):
        assert isinstance(get_aggregator("weighted"), WeightedAggregator)
        assert isinstance(get_aggregator("mean"), MeanAggregator)
        with pytest.raises(ValueError):
            get_aggregator("max")


class TestLoss:
    def test_perfect_embeddings_have_low_loss(self):
        target = np.array([[1.0, 0.0]])
        context = np.array([[1.0, 0.0]])
        negatives = np.array([[[-1.0, 0.0], [-1.0, 0.0]]])
        loss, *_ = negative_sampling_loss(target, context, negatives)
        bad_loss, *_ = negative_sampling_loss(target, -context, -negatives)
        assert loss < bad_loss

    def test_gradient_signs(self):
        target = np.array([[1.0, 0.0]])
        context = np.array([[0.0, 1.0]])
        negatives = np.array([[[1.0, 0.0]]])
        _, grad_target, grad_context, grad_negative = negative_sampling_loss(
            target, context, negatives
        )
        # moving the target towards the context reduces the loss
        assert grad_target[0] @ context[0] < 0
        # moving the negative towards the target increases the loss
        assert grad_negative[0, 0] @ target[0] > 0
        assert grad_context.shape == context.shape

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        target = rng.standard_normal((3, 4))
        context = rng.standard_normal((3, 4))
        negatives = rng.standard_normal((3, 2, 4))
        loss, grad_target, _, _ = negative_sampling_loss(target, context, negatives)
        eps = 1e-6
        for index in [(0, 0), (1, 2), (2, 3)]:
            perturbed = target.copy()
            perturbed[index] += eps
            plus, *_ = negative_sampling_loss(perturbed, context, negatives)
            perturbed[index] -= 2 * eps
            minus, *_ = negative_sampling_loss(perturbed, context, negatives)
            numeric = (plus - minus) / (2 * eps)
            assert grad_target[index] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            negative_sampling_loss(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 1, 3)))
        with pytest.raises(ValueError):
            negative_sampling_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))

    def test_sigmoid_consistency(self):
        # the loss at score 0 should equal (1 + tau) * log 2
        target = np.array([[0.0, 0.0]])
        context = np.array([[1.0, 0.0]])
        negatives = np.zeros((1, 4, 2))
        loss, *_ = negative_sampling_loss(target, context, negatives)
        assert loss == pytest.approx(5 * np.log(2.0), rel=1e-6)
        assert sigmoid(0.0) == pytest.approx(0.5)


class TestModel:
    def test_forward_shape_and_norm(self, tiny_graph):
        model = RFGNN(
            tiny_graph, RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(3, 2)), seed=0
        )
        embeddings = model.forward(np.arange(4))
        assert embeddings.shape == (4, 8)
        assert np.allclose(np.linalg.norm(embeddings, axis=1), 1.0)

    def test_embed_nodes_all(self, tiny_graph):
        model = RFGNN(
            tiny_graph, RFGNNConfig(embedding_dim=4, neighbor_sample_sizes=(3, 2)), seed=0
        )
        embeddings = model.embed_nodes()
        assert embeddings.shape == (tiny_graph.num_nodes, 4)

    def test_embed_record_nodes_order(self, tiny_graph, tiny_dataset):
        model = RFGNN(
            tiny_graph, RFGNNConfig(embedding_dim=4, neighbor_sample_sizes=(3, 2)), seed=0
        )
        embeddings = model.embed_record_nodes()
        assert embeddings.shape == (len(tiny_dataset), 4)

    def test_inference_sample_sizes_override(self, tiny_graph):
        config = RFGNNConfig(embedding_dim=4, neighbor_sample_sizes=(3, 2))
        model = RFGNN(tiny_graph, config, seed=0)
        embeddings = model.embed_nodes(sample_sizes=(6, 4))
        assert embeddings.shape == (tiny_graph.num_nodes, 4)
        assert model.config.neighbor_sample_sizes == (3, 2)  # restored afterwards
        with pytest.raises(ValueError):
            model.embed_nodes(sample_sizes=(6,))

    def test_backward_requires_forward(self, tiny_graph):
        model = RFGNN(tiny_graph, RFGNNConfig(embedding_dim=4, neighbor_sample_sizes=(3, 2)))
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((2, 4)))

    def test_gradient_check_weights_and_features(self, tiny_graph):
        config = RFGNNConfig(embedding_dim=4, input_dim=4, neighbor_sample_sizes=(3, 2))
        model = RFGNN(tiny_graph, config, seed=0)
        targets = np.arange(4)

        # Freeze the neighbourhood sampling so finite differences see the same graph.
        cache = {}
        original_sample = model.sampler.sample

        def fixed_sample(nodes, size):
            key = (tuple(np.asarray(nodes).tolist()), size)
            if key not in cache:
                cache[key] = original_sample(nodes, size)
            return cache[key]

        model.sampler.sample = fixed_sample
        reference = np.linspace(0.0, 1.0, 4 * config.embedding_dim).reshape(4, -1)

        def loss():
            embeddings = model.forward(targets)
            return 0.5 * float(np.sum((embeddings - reference) ** 2)), embeddings - reference

        _, grad_embeddings = loss()
        model.zero_grad()
        model.backward(grad_embeddings)
        eps = 1e-6
        # check a few W entries
        for layer in range(2):
            weight = model.weights[layer]
            analytic = model.weight_grads[layer]
            for index in [(0, 0), (1, 2)]:
                original = weight[index]
                weight[index] = original + eps
                plus, _ = loss()
                weight[index] = original - eps
                minus, _ = loss()
                weight[index] = original
                assert analytic[index] == pytest.approx(
                    (plus - minus) / (2 * eps), rel=1e-3, abs=1e-7
                )
        # check one feature entry
        node = int(model._cache is None) * 0  # always node 0
        original = model.node_features[node, 0]
        model.node_features[node, 0] = original + eps
        plus, _ = loss()
        model.node_features[node, 0] = original - eps
        minus, _ = loss()
        model.node_features[node, 0] = original
        assert model.feature_grads[node, 0] == pytest.approx(
            (plus - minus) / (2 * eps), rel=1e-3, abs=1e-7
        )

    def test_no_attention_uses_mean_aggregator(self, tiny_graph):
        model = RFGNN(tiny_graph, RFGNNConfig(attention=False, neighbor_sample_sizes=(3, 2)))
        assert isinstance(model.aggregator, MeanAggregator)

    def test_frozen_features_have_no_feature_group(self, tiny_graph):
        model = RFGNN(
            tiny_graph,
            RFGNNConfig(neighbor_sample_sizes=(3, 2), train_node_features=False),
        )
        names = [set(group) for group in model.parameters()]
        assert {"features"} not in names


def reference_feature_grads(model, grad_embeddings):
    """Oracle for the level-0 feature gradient of the last forward pass.

    Materialises the gradient of every tree level row by row, then scatters
    the bottom level with ``np.add.at``.  The arithmetic above the scatter
    mirrors :meth:`RFGNN.backward` op for op, so the two must agree bit for
    bit: ``backward`` sums each destination's entries in tree order too.
    """
    cache = model._cache
    config = cache.config
    grad_hidden = grad_embeddings
    for k in range(config.num_hops, 0, -1):
        normalized = cache.hidden[k]
        dot = np.einsum("pd,pd->p", grad_hidden, normalized)[:, None]
        grad_activated = (grad_hidden - normalized * dot) / cache.norms[k]
        grad_pre = grad_activated * model.activation.backward(
            cache.pre_activation[k], cache.activated[k]
        )
        grad_concat = grad_pre @ model.weights[k - 1].T
        dim = cache.hidden[k - 1].shape[1]
        grad_neighbors = cache.coefficients[k][:, :, None] * grad_concat[:, None, dim:]
        grad_hidden = np.concatenate([grad_concat[:, :dim], grad_neighbors.reshape(-1, dim)])
    expected = np.zeros_like(model.node_features)
    np.add.at(expected, cache.layer_nodes[0], grad_hidden)
    return expected


class TestFeatureGradientScatter:
    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_add_at_oracle(self, small_building_dataset, attention, seed):
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        config = RFGNNConfig(
            embedding_dim=6, input_dim=5, neighbor_sample_sizes=(4, 3), attention=attention
        )
        model = RFGNN(graph, config, seed=seed)
        rng = np.random.default_rng(seed)
        targets = np.unique(rng.integers(0, graph.num_nodes, size=40))
        model.forward(targets)
        level0 = model._cache.layer_nodes[0]
        num_parents = model._cache.layer_nodes[1].shape[0]
        # Nodes repeat at the bottom level, as self and as neighbour.
        assert np.intersect1d(level0[:num_parents], level0[num_parents:]).size > 0
        assert np.unique(level0[num_parents:]).size < level0.shape[0] - num_parents
        grad_embeddings = rng.standard_normal((targets.shape[0], config.embedding_dim))
        expected = reference_feature_grads(model, grad_embeddings)
        model.zero_grad()
        model.backward(grad_embeddings)
        assert np.array_equal(model.feature_grads, expected)
        assert np.any(expected != 0.0)

    def test_one_hop_tree(self, tiny_graph):
        config = RFGNNConfig(embedding_dim=4, num_hops=1, neighbor_sample_sizes=(3,))
        model = RFGNN(tiny_graph, config, seed=4)
        targets = np.arange(tiny_graph.num_nodes)
        model.forward(targets)
        grad_embeddings = np.random.default_rng(4).standard_normal((targets.shape[0], 4))
        expected = reference_feature_grads(model, grad_embeddings)
        model.zero_grad()
        model.backward(grad_embeddings)
        assert np.array_equal(model.feature_grads, expected)

    def test_frozen_features_leave_feature_grads_untouched(self, small_building_dataset):
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        config = RFGNNConfig(
            embedding_dim=6, neighbor_sample_sizes=(4, 3), train_node_features=False
        )
        model = RFGNN(graph, config, seed=3)
        model.forward(np.arange(30))
        sentinel = np.full_like(model.feature_grads, 7.0)
        model.feature_grads[...] = sentinel
        model.backward(np.ones((30, config.embedding_dim)))
        assert np.array_equal(model.feature_grads, sentinel)
        assert all(np.any(grad != 0.0) for grad in model.weight_grads)


class TestTrainer:
    def test_training_reduces_loss(self, small_building_dataset):
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        config = RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(8, 4))
        trainer = RFGNNTrainer(graph, config, num_epochs=3, seed=0, max_pairs_per_epoch=8000)
        trainer.fit()
        assert trainer.history.num_epochs == 3
        assert trainer.history.final_loss < trainer.history.epoch_losses[0]

    def test_embeddings_shape(self, small_building_dataset):
        graph = BipartiteGraph.from_dataset(small_building_dataset)
        config = RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(6, 3))
        trainer = RFGNNTrainer(graph, config, num_epochs=1, seed=0, max_pairs_per_epoch=4000)
        all_embeddings = trainer.fit()
        assert all_embeddings.shape == (graph.num_nodes, 8)
        sample_embeddings = trainer.sample_embeddings()
        assert sample_embeddings.shape == (len(small_building_dataset), 8)

    def test_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            RFGNNTrainer(tiny_graph, num_epochs=0)
        with pytest.raises(ValueError):
            RFGNNTrainer(tiny_graph, batch_size=0)
        with pytest.raises(ValueError):
            RFGNNTrainer(tiny_graph, negatives_per_pair=0)

    def test_history_final_loss_requires_epochs(self, tiny_graph):
        trainer = RFGNNTrainer(tiny_graph, RFGNNConfig(neighbor_sample_sizes=(3, 2)))
        with pytest.raises(ValueError):
            _ = trainer.history.final_loss
