"""Unsupervised training loop for RF-GNN (paper Section III-B).

Each epoch the trainer:

1. generates RSS-weighted random walks over the bipartite graph and extracts
   positive (target, context) pairs from a sliding window,
2. draws ``tau`` negative nodes per pair from ``Pr(z) ∝ degree^{3/4}``,
3. embeds the unique nodes of each minibatch with :class:`RFGNN.forward`,
4. evaluates the negative-sampling loss, scatters its gradients back onto the
   minibatch embeddings, and backpropagates into the ``W_k`` matrices and the
   node features,
5. clips the global gradient norm and takes a dense Adam step.

The unique nodes of every full batch are found in one sorting sweep per
epoch, and every gradient scatter is an ``np.bincount`` that sums each
destination's entries in input order (the result ``np.add.at`` gives).

``fit()`` returns the final embeddings of *all* nodes (MACs and samples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.gnn.loss import negative_sampling_loss
from repro.gnn.model import RFGNN, RFGNNConfig, RFGNNInitParams
from repro.graph.csr import AnyGraph
from repro.graph.negative_sampling import NegativeSampler
from repro.graph.walks import RandomWalkGenerator, WalkConfig
from repro.nn.optimizers import Adam, clip_gradients


@dataclass
class TrainingHistory:
    """Loss trajectory of one training run."""

    epoch_losses: List[float] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.epoch_losses)

    @property
    def final_loss(self) -> float:
        """Mean loss of the last epoch.

        Raises
        ------
        ValueError
            If no epoch has completed yet.
        """
        if not self.epoch_losses:
            raise ValueError("no epochs have been recorded")
        return self.epoch_losses[-1]


class RFGNNTrainer:
    """Trains an :class:`RFGNN` encoder without labels.

    Parameters
    ----------
    graph:
        The bipartite RF graph of one building (mutable builder or frozen
        CSR view; the trainer freezes it once and every component — model,
        walker, negative sampler — shares the frozen graph and its cached
        alias tables).
    config:
        RF-GNN hyper-parameters.  The walk generator inherits the
        ``attention`` flag (weighted vs. uniform walks).
    walk_config:
        Random-walk parameters; defaults to the paper's walk length of 5.
    num_epochs:
        Training epochs (one round of walks per epoch).
    batch_size:
        Number of positive pairs per gradient step.
    learning_rate:
        Adam learning rate.
    negatives_per_pair:
        The paper's ``tau`` (4).
    max_pairs_per_epoch:
        Optional cap on the number of positive pairs used per epoch — keeps
        the cost of very dense graphs bounded without changing the objective.
    grad_clip_norm:
        Global gradient-norm clip.
    seed:
        RNG seed controlling walks, negative sampling, and initialisation.
    init_params:
        Optional :class:`~repro.gnn.model.RFGNNInitParams` warm-starting the
        ``W_k`` matrices and/or node features from a previous fit instead of
        the cold random initialisation — the incremental-refresh path trains
        a few fine-tune epochs from here rather than from scratch.
    """

    def __init__(
        self,
        graph: AnyGraph,
        config: RFGNNConfig = RFGNNConfig(),
        walk_config: Optional[WalkConfig] = None,
        num_epochs: int = 5,
        batch_size: int = 512,
        learning_rate: float = 0.05,
        negatives_per_pair: int = 4,
        max_pairs_per_epoch: Optional[int] = 60_000,
        grad_clip_norm: float = 5.0,
        seed: int = 0,
        init_params: Optional[RFGNNInitParams] = None,
    ) -> None:
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if negatives_per_pair < 1:
            raise ValueError("negatives_per_pair must be >= 1")
        # Freeze once: the model, walker, and negative sampler all read the
        # same CSR arrays, and the walker and the model's neighbour sampler
        # share one set of graph-owned alias tables (each with its own RNG).
        self.graph = graph.freeze()
        self.config = config
        self.model = RFGNN(self.graph, config, seed=seed, init_params=init_params)
        self.walk_config = walk_config or WalkConfig(weighted=config.attention)
        self.walker = RandomWalkGenerator(self.graph, self.walk_config, seed=seed + 1)
        self.negative_sampler = NegativeSampler(self.graph, seed=seed + 2)
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.negatives_per_pair = negatives_per_pair
        self.max_pairs_per_epoch = max_pairs_per_epoch
        self.grad_clip_norm = grad_clip_norm
        self._rng = np.random.default_rng(seed + 3)
        self.optimizer = Adam(self.model.parameters(), self.model.gradients(), lr=learning_rate)
        self.history = TrainingHistory()
        self._frozen_encoders: dict = {}

    # -- single training step -----------------------------------------------------

    def _train_batch(
        self,
        unique_nodes: np.ndarray,
        target_index: np.ndarray,
        context_index: np.ndarray,
        negative_index: np.ndarray,
    ) -> float:
        """One gradient step on a batch's deduplicated tensors.

        ``unique_nodes`` are the batch's distinct nodes; the three index
        arrays locate each pair's target, context and negatives in them.
        """
        model = self.model
        embeddings = model.forward(unique_nodes)
        loss, grad_target, grad_context, grad_negative = negative_sampling_loss(
            embeddings[target_index],
            embeddings[context_index],
            embeddings[negative_index],
        )
        # One flattened-composite bincount for the three scatters:
        # destinations ordered [targets, contexts, negatives], the per-row
        # accumulation order of three sequential np.add.at calls.
        dim = embeddings.shape[1]
        keys = np.concatenate([target_index, context_index, negative_index.reshape(-1)])
        rows = np.concatenate([grad_target, grad_context, grad_negative.reshape(-1, dim)])
        flat_keys = keys[:, None] * dim + np.arange(dim, dtype=np.int64)[None, :]
        grad_embeddings = np.bincount(
            flat_keys.ravel(),
            weights=rows.ravel(),
            minlength=unique_nodes.shape[0] * dim,
        ).reshape(unique_nodes.shape[0], dim)

        self.optimizer.zero_grad()
        model.backward(grad_embeddings)
        clip_gradients(model.gradients(), self.grad_clip_norm)
        self.optimizer.step()
        return loss

    # -- epoch / fit ----------------------------------------------------------------

    def _epoch_batch_tensors(self, pairs: np.ndarray, negatives: np.ndarray):
        """Deduplicate every full batch of the epoch in one sorting sweep.

        Yields ``(unique_nodes, target_index, context_index, negative_index)``
        per batch — exactly what per-batch ``np.unique(..., return_inverse=
        True)`` would produce: same sorted unique values, same inverse ranks
        (ranks depend only on values, so sort stability is irrelevant).  The
        ragged tail batch falls back to plain ``np.unique``.
        """
        num_pairs = pairs.shape[0]
        batch = self.batch_size
        tau = self.negatives_per_pair
        num_full = num_pairs // batch
        if num_full:
            span = num_full * batch
            stacked = np.concatenate(
                [
                    pairs[:span, 0].reshape(num_full, batch),
                    pairs[:span, 1].reshape(num_full, batch),
                    negatives[:span].reshape(num_full, batch * tau),
                ],
                axis=1,
            )
            ordered = np.sort(stacked, axis=1)
            newmask = np.empty(ordered.shape, dtype=bool)
            newmask[:, 0] = True
            np.not_equal(ordered[:, 1:], ordered[:, :-1], out=newmask[:, 1:])
            rank = np.cumsum(newmask, axis=1) - 1
            inverse = np.empty(stacked.shape, dtype=np.int64)
            np.put_along_axis(inverse, np.argsort(stacked, axis=1), rank, axis=1)
            for index in range(num_full):
                unique_nodes = ordered[index][newmask[index]]
                inv = inverse[index]
                yield (
                    unique_nodes,
                    inv[:batch],
                    inv[batch : 2 * batch],
                    inv[2 * batch :].reshape(batch, tau),
                )
        if num_pairs % batch:
            tail_pairs = pairs[num_full * batch :]
            tail_negatives = negatives[num_full * batch :]
            count = tail_pairs.shape[0]
            all_nodes = np.concatenate(
                [tail_pairs[:, 0], tail_pairs[:, 1], tail_negatives.reshape(-1)]
            )
            unique_nodes, inv = np.unique(all_nodes, return_inverse=True)
            yield (
                unique_nodes,
                inv[:count],
                inv[count : 2 * count],
                inv[2 * count :].reshape(count, tau),
            )

    def train_epoch(self) -> float:
        """Run one epoch (a fresh round of walks) and return its mean loss."""
        pairs = self.walker.positive_pairs()
        order = self._rng.permutation(pairs.shape[0])
        pairs = pairs[order]
        if self.max_pairs_per_epoch is not None and pairs.shape[0] > self.max_pairs_per_epoch:
            pairs = pairs[: self.max_pairs_per_epoch]
        negatives = self.negative_sampler.sample_for_pairs(
            pairs.shape[0], self.negatives_per_pair
        )
        losses = [
            self._train_batch(*batch_tensors)
            for batch_tensors in self._epoch_batch_tensors(pairs, negatives)
        ]
        epoch_loss = float(np.mean(losses))
        self.history.epoch_losses.append(epoch_loss)
        self._frozen_encoders.clear()  # weights moved; cached snapshots are stale
        return epoch_loss

    def fit(self, return_embeddings: bool = True) -> Optional[np.ndarray]:
        """Train for ``num_epochs`` epochs and return embeddings of all nodes.

        ``return_embeddings=False`` skips the full-graph embedding pass but
        advances the neighbour sampler's RNG by exactly the draws that pass
        would have made — downstream inference passes observe the identical
        stream position, so results are bit-for-bit unchanged.  Callers that
        discard the return value (the pipeline embeds separately, with
        inference-time sample sizes) save a whole forward sweep.
        """
        for _ in range(self.num_epochs):
            self.train_epoch()
        if return_embeddings:
            return self.model.embed_nodes()
        num_nodes = self.graph.num_nodes
        batch_size = 512
        for start in range(0, num_nodes, batch_size):
            self.model.consume_sampler_rng(min(batch_size, num_nodes - start))
        return None

    def sample_embeddings(self, sample_sizes=None, records=None) -> np.ndarray:
        """Embeddings of signal samples, in dataset record order.

        Parameters
        ----------
        sample_sizes:
            Optional per-hop neighbourhood sizes for inference; see
            :meth:`RFGNN.embed_nodes`.
        records:
            Optional sequence of *out-of-dataset*
            :class:`~repro.signals.record.SignalRecord`\\ s.  When given, the
            records are embedded through the frozen encoder via their
            observed-MAC neighbourhoods (see
            :class:`~repro.gnn.frozen.FrozenEncoder`) instead of the graph's
            sample nodes — the online-inference path of the serving layer.
        """
        if records is not None:
            return self.frozen_encoder(sample_sizes=sample_sizes).embed_records(records)[0]
        return self.model.embed_record_nodes(sample_sizes=sample_sizes)

    def frozen_encoder(self, sample_sizes=None, passes: int = 1):
        """A graph-free :class:`~repro.gnn.frozen.FrozenEncoder` snapshot.

        Snapshotting sweeps the whole graph once per hop, so the result is
        cached per ``(sample_sizes, passes)`` and invalidated whenever a
        further training epoch updates the weights.
        """
        from repro.gnn.frozen import FrozenEncoder

        key = (None if sample_sizes is None else tuple(sample_sizes), passes)
        cached = self._frozen_encoders.get(key)
        if cached is None:
            cached = FrozenEncoder.from_model(
                self.model, sample_sizes=sample_sizes, passes=passes
            )
            self._frozen_encoders[key] = cached
        return cached
