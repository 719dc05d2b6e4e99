"""The RF-GNN encoder (paper Section III-B).

The encoder is a K-hop GraphSAGE-style network.  For every node ``i`` and
iteration ``k``::

    r^k_N(i) = AGGREGATE_w( r^{k-1}_j for j in sampled N'(i) )
    r^k_i    = sigma( W_k @ concat(r^{k-1}_i, r^k_N(i)) )
    r^k_i    = r^k_i / ||r^k_i||_2

Initial representations ``r^0_i`` are fixed random unit vectors.  The only
trainable parameters are the ``W_k`` matrices; the aggregation coefficients
(the attention) come straight from the RSS edge weights and carry no
parameters, which is what lets the model train without any labels.

The model implements forward and backward passes over *minibatches of target
nodes*: to embed a batch, it samples the K-hop neighbourhood tree and keeps
all intermediates so the backward pass can push loss gradients down to every
``W_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gnn.aggregators import Aggregator, MeanAggregator, WeightedAggregator
from repro.gnn.samplers import NeighborSampler
from repro.graph.csr import AnyGraph
from repro.nn.activations import Activation, get_activation
from repro.nn.init import glorot_uniform, random_node_features


@dataclass(frozen=True)
class RFGNNConfig:
    """Hyper-parameters of the RF-GNN encoder.

    Parameters
    ----------
    embedding_dim:
        Output embedding dimension (the paper sweeps 8–64, default 32).
    input_dim:
        Dimension of the fixed random initial representations ``r^0``;
        defaults to ``embedding_dim``.
    num_hops:
        Number of aggregation iterations ``K`` (the paper uses 2).
    neighbor_sample_sizes:
        Neighbours sampled per hop, outermost hop first; length must equal
        ``num_hops``.
    attention:
        Use the RSS-based attention (weighted sampling + weighted
        aggregation).  ``False`` reproduces the "without attention" ablation:
        uniform sampling and mean aggregation.
    activation:
        Name of the nonlinearity ``sigma`` (default ``tanh``).
    train_node_features:
        Learn the initial node representations ``r^0`` together with the
        ``W_k`` (the paper trains "the vector representation of each node and
        the weight matrices"); they are still *initialised* to random unit
        vectors.  Setting this to ``False`` keeps them frozen at their random
        initialisation.
    """

    embedding_dim: int = 32
    input_dim: Optional[int] = None
    num_hops: int = 2
    neighbor_sample_sizes: Sequence[int] = (10, 5)
    attention: bool = True
    activation: str = "tanh"
    train_node_features: bool = True

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if len(self.neighbor_sample_sizes) != self.num_hops:
            raise ValueError(
                f"neighbor_sample_sizes must have {self.num_hops} entries, "
                f"got {len(self.neighbor_sample_sizes)}"
            )
        if any(size < 1 for size in self.neighbor_sample_sizes):
            raise ValueError("neighbour sample sizes must be >= 1")

    @property
    def resolved_input_dim(self) -> int:
        """The input feature dimension actually used."""
        return self.input_dim if self.input_dim is not None else self.embedding_dim


@dataclass(frozen=True)
class RFGNNInitParams:
    """Warm-start values for the trainable parameters of an :class:`RFGNN`.

    Passing an instance to the model (or through
    :class:`~repro.gnn.trainer.RFGNNTrainer`) replaces the cold random
    initialisation with previously learned values — the substrate of
    incremental refresh: a model fitted on a building yesterday seeds today's
    fine-tune on the grown graph, so a short training budget suffices.

    Attributes
    ----------
    weights:
        Optional ``W_k`` matrices, one per hop, each shaped exactly like the
        matrix it replaces (warm-startable across graph growth because the
        ``W_k`` are graph-size independent).
    node_features:
        Optional full ``(num_nodes, input_dim)`` matrix of initial node
        representations ``r^0``.  Callers growing a graph assemble this by
        copying learned rows for surviving nodes and drawing random unit
        vectors for new ones (see :mod:`repro.core.refresh`).
    """

    weights: Optional[Sequence[np.ndarray]] = None
    node_features: Optional[np.ndarray] = None


@dataclass
class SampledTree:
    """The K-level neighbourhood tree of one minibatch.

    Produced by :meth:`RFGNN.sample_tree` (which consumes sampler RNG) and
    consumed by :meth:`RFGNN.forward_from_tree` (pure arithmetic).
    ``layer_nodes[0]`` lists every node row the forward pass reads, with
    repeats: one entry per tree occurrence.
    """

    targets: np.ndarray
    layer_nodes: List[np.ndarray]
    coefficients: List[np.ndarray]
    config: "RFGNNConfig"


@dataclass
class _ForwardCache:
    """Intermediates of one minibatch forward pass, consumed by backward()."""

    layer_nodes: List[np.ndarray] = field(default_factory=list)
    coefficients: List[np.ndarray] = field(default_factory=list)
    hidden: List[np.ndarray] = field(default_factory=list)
    concatenated: List[np.ndarray] = field(default_factory=list)
    pre_activation: List[np.ndarray] = field(default_factory=list)
    activated: List[np.ndarray] = field(default_factory=list)
    norms: List[np.ndarray] = field(default_factory=list)
    config: Optional["RFGNNConfig"] = None


class RFGNN:
    """The RF-GNN encoder with explicit forward/backward minibatch passes."""

    def __init__(
        self,
        graph: AnyGraph,
        config: RFGNNConfig = RFGNNConfig(),
        seed: int = 0,
        init_params: Optional[RFGNNInitParams] = None,
    ) -> None:
        # The model only reads the graph, so it operates on the frozen CSR
        # view; its alias tables are shared with every other consumer.
        self.graph = graph.freeze()
        self.config = config
        rng = np.random.default_rng(seed)
        self._rng = rng
        self.sampler = NeighborSampler(self.graph, weighted=config.attention, seed=seed)
        self.aggregator: Aggregator = (
            WeightedAggregator() if config.attention else MeanAggregator()
        )
        self.activation: Activation = get_activation(config.activation)
        input_dim = config.resolved_input_dim
        # Initial node representations r^0, randomly initialised; trainable by
        # default (the paper learns them jointly with the W_k).
        self.node_features = random_node_features(graph.num_nodes, input_dim, rng)
        self.feature_grads = np.zeros_like(self.node_features)
        # One weight matrix per hop, mapping concat(self, neighbourhood) -> out.
        dims = [input_dim] + [config.embedding_dim] * config.num_hops
        self.weights: List[np.ndarray] = [
            glorot_uniform(2 * dims[k], dims[k + 1], rng) for k in range(config.num_hops)
        ]
        if init_params is not None:
            self._apply_init_params(init_params)
        self.weight_grads: List[np.ndarray] = [np.zeros_like(w) for w in self.weights]
        self._cache: Optional[_ForwardCache] = None

    def _apply_init_params(self, init_params: RFGNNInitParams) -> None:
        """Replace the random initialisation with warm-start values.

        Raises
        ------
        ValueError
            If any provided matrix does not match the shape the model's
            configuration and graph dictate — a mismatch means the warm
            start comes from an incompatible model and must fail loudly.
        """
        if init_params.weights is not None:
            if len(init_params.weights) != len(self.weights):
                raise ValueError(
                    f"init_params.weights has {len(init_params.weights)} matrices "
                    f"but the model has {len(self.weights)} hops"
                )
            for hop, warm in enumerate(init_params.weights):
                warm = np.asarray(warm, dtype=np.float64)
                if warm.shape != self.weights[hop].shape:
                    raise ValueError(
                        f"init_params.weights[{hop}] has shape {warm.shape}, "
                        f"expected {self.weights[hop].shape}"
                    )
                self.weights[hop] = warm.copy()
        if init_params.node_features is not None:
            warm_features = np.asarray(init_params.node_features, dtype=np.float64)
            if warm_features.shape != self.node_features.shape:
                raise ValueError(
                    f"init_params.node_features has shape {warm_features.shape}, "
                    f"expected {self.node_features.shape}"
                )
            self.node_features = warm_features.copy()
            self.feature_grads = np.zeros_like(self.node_features)

    # -- parameter plumbing ----------------------------------------------------

    def parameters(self) -> List[Dict[str, np.ndarray]]:
        """Parameter groups in the format expected by :mod:`repro.nn.optimizers`."""
        groups = [{f"W{k}": self.weights[k]} for k in range(len(self.weights))]
        if self.config.train_node_features:
            groups.append({"features": self.node_features})
        return groups

    def gradients(self) -> List[Dict[str, np.ndarray]]:
        """Gradient groups aligned with :meth:`parameters`."""
        groups = [{f"W{k}": self.weight_grads[k]} for k in range(len(self.weight_grads))]
        if self.config.train_node_features:
            groups.append({"features": self.feature_grads})
        return groups

    def zero_grad(self) -> None:
        """Reset accumulated weight (and feature) gradients."""
        for grad in self.weight_grads:
            grad[...] = 0.0
        self.feature_grads[...] = 0.0

    # -- forward ---------------------------------------------------------------

    def sample_tree(
        self, targets: Sequence[int], config: Optional[RFGNNConfig] = None
    ) -> SampledTree:
        """Sample the K-level neighbourhood tree of a batch (RNG only, no math).

        Level K holds the targets, level ``k-1`` holds the level-``k`` nodes
        followed by their sampled neighbours.
        """
        config = self.config if config is None else config
        targets = np.asarray(targets, dtype=np.int64)
        layer_nodes: List[np.ndarray] = [None] * (config.num_hops + 1)  # type: ignore[list-item]
        coefficients: List[np.ndarray] = [None] * (config.num_hops + 1)  # type: ignore[list-item]
        layer_nodes[config.num_hops] = targets
        for k in range(config.num_hops, 0, -1):
            sample_size = config.neighbor_sample_sizes[config.num_hops - k]
            sampled = self.sampler.sample(layer_nodes[k], sample_size)
            coefficients[k] = self.aggregator.coefficients(sampled.edge_weights)
            layer_nodes[k - 1] = np.concatenate([layer_nodes[k], sampled.neighbors.reshape(-1)])
        return SampledTree(targets, layer_nodes, coefficients, config)

    def consume_sampler_rng(
        self, num_targets: int, config: Optional[RFGNNConfig] = None
    ) -> None:
        """Advance the sampler RNG exactly as :meth:`sample_tree` would.

        The number and shapes of the sampler's uniform draws depend only on
        the batch size and the per-hop sample sizes — never on the sampled
        values — so a caller that needs the RNG stream position of a forward
        pass without its results (e.g. a training loop whose final
        full-graph embedding pass is discarded, but whose stream position
        the subsequent inference passes were seeded against) can skip all
        gathers and matrix math.  Keep in lockstep with :meth:`sample_tree`.
        """
        config = self.config if config is None else config
        count = int(num_targets)
        for k in range(config.num_hops, 0, -1):
            sample_size = config.neighbor_sample_sizes[config.num_hops - k]
            self.sampler.consume(count, sample_size)
            count += count * sample_size

    def forward(
        self, targets: Sequence[int], config: Optional[RFGNNConfig] = None
    ) -> np.ndarray:
        """Embed a batch of target nodes, caching intermediates for backward().

        Returns an array of shape ``(len(targets), embedding_dim)``.
        ``config`` overrides the training-time hyper-parameters for this one
        pass (inference uses truncated hop counts and larger sample sizes).
        """
        return self.forward_from_tree(self.sample_tree(targets, config))

    def forward_from_tree(self, tree: SampledTree) -> np.ndarray:
        """Run the bottom-up aggregation over an already-sampled tree."""
        config = tree.config
        layer_nodes = tree.layer_nodes
        cache = _ForwardCache()
        cache.layer_nodes = layer_nodes
        cache.coefficients = tree.coefficients
        cache.config = config
        coefficients = tree.coefficients

        # Bottom-up aggregation.
        hidden: List[np.ndarray] = [None] * (config.num_hops + 1)  # type: ignore[list-item]
        hidden[0] = np.take(self.node_features, layer_nodes[0], axis=0)
        cache.concatenated = [None] * (config.num_hops + 1)  # type: ignore[list-item]
        cache.pre_activation = [None] * (config.num_hops + 1)  # type: ignore[list-item]
        cache.activated = [None] * (config.num_hops + 1)  # type: ignore[list-item]
        cache.norms = [None] * (config.num_hops + 1)  # type: ignore[list-item]
        for k in range(1, config.num_hops + 1):
            sample_size = config.neighbor_sample_sizes[config.num_hops - k]
            num_parents = layer_nodes[k].shape[0]
            previous = hidden[k - 1]
            h_self = previous[:num_parents]
            h_neighbors = previous[num_parents:].reshape(num_parents, sample_size, -1)
            # Contract over the sample axis without a (P, S, d) product.
            aggregated = np.einsum("ps,psd->pd", coefficients[k], h_neighbors)
            concatenated = np.concatenate([h_self, aggregated], axis=1)
            pre_activation = concatenated @ self.weights[k - 1]
            activated = self.activation.forward(pre_activation)
            norms = np.sqrt(np.einsum("pd,pd->p", activated, activated))[:, None]
            np.maximum(norms, 1e-12, out=norms)
            hidden[k] = activated / norms
            cache.concatenated[k] = concatenated
            cache.pre_activation[k] = pre_activation
            cache.activated[k] = activated
            cache.norms[k] = norms
        cache.hidden = hidden
        self._cache = cache
        return hidden[config.num_hops]

    # -- backward ----------------------------------------------------------------

    def backward(self, grad_embeddings: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the last forward() output.

        Accumulates into ``weight_grads`` and, when the initial
        representations are trainable, into the dense ``feature_grads``.
        The bottom hop never materialises the gradient of its ``(M, d)``
        input level: it writes the self and neighbour parts into one
        transposed ``(d, M)`` buffer and scatters each column into
        ``feature_grads`` with one ``np.bincount`` over the level-0 node
        ids.  Every destination row sums its entries in tree order, exactly
        like ``np.add.at`` on the repeated tree nodes.

        Parameters
        ----------
        grad_embeddings:
            Array of shape ``(batch, embedding_dim)`` — dLoss/dEmbedding for
            the targets passed to the last :meth:`forward` call.
        """
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cache = self._cache
        config = cache.config if cache.config is not None else self.config
        grad_hidden = np.asarray(grad_embeddings, dtype=np.float64)
        for k in range(config.num_hops, 0, -1):
            # Undo the L2 normalisation: y = a / ||a||.  One array carries
            # the gradient through normalisation and activation in place.
            normalized = cache.hidden[k]
            dot = np.einsum("pd,pd->p", grad_hidden, normalized)[:, None]
            grad_pre = normalized * dot
            np.subtract(grad_hidden, grad_pre, out=grad_pre)
            grad_pre /= cache.norms[k]
            # Activation.
            grad_pre *= self.activation.backward(cache.pre_activation[k], cache.activated[k])
            # Linear map.
            self.weight_grads[k - 1] += cache.concatenated[k].T @ grad_pre
            if k == 1 and not config.train_node_features:
                break  # frozen r^0: nothing below the bottom weights
            grad_concat = grad_pre @ self.weights[k - 1].T
            # Split into self part and aggregated-neighbourhood part; the
            # aggregated gradient reaches neighbour s of parent p scaled by
            # its coefficient.
            previous_dim = cache.hidden[k - 1].shape[1]
            grad_self = grad_concat[:, :previous_dim]
            grad_aggregated = grad_concat[:, previous_dim:]
            coeff = cache.coefficients[k]
            num_parents, sample_size = coeff.shape
            if k > 1:
                grad_hidden = np.empty_like(cache.hidden[k - 1])
                grad_hidden[:num_parents] = grad_self
                np.multiply(
                    coeff[:, :, None],
                    grad_aggregated[:, None, :],
                    out=grad_hidden[num_parents:].reshape(num_parents, sample_size, -1),
                )
                continue
            level0 = cache.layer_nodes[0]
            buffer = np.empty((previous_dim, level0.shape[0]))
            buffer[:, :num_parents] = grad_self.T
            np.multiply(
                grad_aggregated.T[:, :, None],
                coeff[None],
                out=buffer[:, num_parents:].reshape(previous_dim, num_parents, sample_size),
            )
            num_nodes = self.feature_grads.shape[0]
            for column in range(previous_dim):
                self.feature_grads[:, column] += np.bincount(
                    level0, weights=buffer[column], minlength=num_nodes
                )
        self._cache = None

    # -- inference ------------------------------------------------------------------

    def embed_nodes(
        self,
        nodes: Optional[Sequence[int]] = None,
        batch_size: int = 512,
        sample_sizes: Optional[Sequence[int]] = None,
        num_hops: Optional[int] = None,
    ) -> np.ndarray:
        """Embed nodes without keeping backward state (inference).

        Parameters
        ----------
        nodes:
            Node ids to embed; all nodes when omitted.
        batch_size:
            Number of nodes embedded per forward pass.
        sample_sizes:
            Optional per-hop neighbourhood sample sizes to use at inference
            time.  Larger sizes approximate full-neighbourhood aggregation
            and remove most of the sampling variance; defaults to the
            training-time sizes.
        num_hops:
            Optional truncated hop count ``h <= K``: returns the intermediate
            representations ``r^h`` (computed with ``W_0 .. W_{h-1}`` only)
            instead of the final ``r^K``.  This is what the serving layer
            snapshots for MAC nodes so that new signal samples can be embedded
            without the training graph.  When combined with ``sample_sizes``,
            the sizes must have ``h`` entries; the default uses the *last*
            ``h`` training-time sizes, matching the depths these nodes occupy
            inside a full K-hop pass.
        """
        if nodes is None:
            nodes = np.arange(self.graph.num_nodes, dtype=np.int64)
        else:
            nodes = np.asarray(nodes, dtype=np.int64)
        config = self.config
        effective_hops = config.num_hops if num_hops is None else int(num_hops)
        if not (1 <= effective_hops <= config.num_hops):
            raise ValueError(
                f"num_hops must lie in [1, {config.num_hops}], got {effective_hops}"
            )
        if sample_sizes is not None:
            if len(sample_sizes) != effective_hops:
                raise ValueError(
                    f"sample_sizes must have {effective_hops} entries, got {len(sample_sizes)}"
                )
            effective_sizes = tuple(sample_sizes)
        else:
            effective_sizes = tuple(config.neighbor_sample_sizes[-effective_hops:])
        if effective_hops != config.num_hops or sample_sizes is not None:
            inference_config = RFGNNConfig(
                embedding_dim=config.embedding_dim,
                input_dim=config.input_dim,
                num_hops=effective_hops,
                neighbor_sample_sizes=effective_sizes,
                attention=config.attention,
                activation=config.activation,
                train_node_features=config.train_node_features,
            )
        else:
            inference_config = config
        outputs = np.empty((nodes.shape[0], config.embedding_dim), dtype=np.float64)
        # The inference configuration is threaded through forward() explicitly
        # — self.config is never touched, so concurrent readers (and the
        # frozen-encoder snapshotters) always see consistent hyper-parameters.
        for start in range(0, nodes.shape[0], batch_size):
            batch = nodes[start : start + batch_size]
            outputs[start : start + batch.shape[0]] = self.forward(
                batch, config=inference_config
            )
        self._cache = None
        return outputs

    def embed_record_nodes(
        self, batch_size: int = 512, sample_sizes: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Embed all signal-sample nodes, in dataset record order."""
        return self.embed_nodes(
            self.graph.sample_ids, batch_size=batch_size, sample_sizes=sample_sizes
        )
