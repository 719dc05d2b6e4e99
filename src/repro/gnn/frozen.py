"""Frozen RF-GNN encoder: online embedding of new records without the graph.

A trained :class:`~repro.gnn.model.RFGNN` is transductive — it embeds the
nodes of the training graph.  Serving a building, however, means embedding
*new* crowdsourced :class:`~repro.signals.record.SignalRecord`\\ s as they
arrive, without retraining and ideally without keeping the training graph in
memory at all.

:class:`FrozenEncoder` makes that possible by snapshotting everything the
encoder recurrence needs on the MAC side:

* the trained weight matrices ``W_0 .. W_{K-1}``,
* the per-hop representations ``r^0 .. r^{K-1}`` of every MAC node,
  precomputed over the training graph (with large inference-time
  neighbourhood samples, averaged over several passes),
* the MAC vocabulary mapping addresses to rows of those matrices.

A new record is then embedded by the very same recurrence the trained model
uses, except that the MAC-side inputs are the frozen representations and the
aggregation runs over the record's *full* observed-MAC neighbourhood (no
sampling), which makes online embedding fully deterministic.  The record's
own initial representation ``r^0`` is the zero vector: unlike the training
nodes, a cold-start record has no *learned* self representation, and zeroing
the self path lets the observed-MAC aggregation — the actual RF signal —
drive the embedding (empirically this tracks full-refit accuracy more
closely than a random unit vector does).

MAC addresses never seen during training are skipped; the fraction of a
record's readings that hit the vocabulary is reported alongside the
embedding so callers can gauge how much signal backed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gnn.model import RFGNN
from repro.graph.bipartite import RSS_OFFSET_DB
from repro.nn.activations import Activation, get_activation
from repro.signals.batch import MacVocab, RecordBatch
from repro.signals.record import SignalRecord


@dataclass
class FrozenEncoder:
    """Inference-only RF-GNN encoder detached from its training graph.

    Attributes
    ----------
    weights:
        The trained ``W_k`` matrices, ``K`` of them.
    activation:
        Name of the nonlinearity (as accepted by
        :func:`repro.nn.activations.get_activation`).
    mac_vocabulary:
        MAC addresses in row order of the ``mac_hidden`` matrices.
    mac_hidden:
        ``K`` matrices; ``mac_hidden[h][i]`` is the hop-``h`` representation
        ``r^h`` of MAC ``mac_vocabulary[i]`` over the training graph
        (``mac_hidden[0]`` holds the learned initial features).
    rss_offset_db:
        The edge-weight offset ``c`` of ``f(RSS) = RSS + c``.
    attention:
        Whether the source model used RSS-weighted aggregation; ``False``
        (the paper's no-attention ablation) aggregates neighbours with a
        uniform mean, matching the recurrence that produced the centroids.
    """

    weights: List[np.ndarray]
    activation: str
    mac_vocabulary: List[str]
    mac_hidden: List[np.ndarray]
    rss_offset_db: float = RSS_OFFSET_DB
    attention: bool = True
    _mac_row: Dict[str, int] = field(init=False, repr=False)
    _activation: Activation = field(init=False, repr=False)
    _batch_translation: Optional[Tuple[MacVocab, np.ndarray]] = field(
        init=False, repr=False
    )
    _stacked_hidden: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("a FrozenEncoder needs at least one weight matrix")
        if len(self.mac_hidden) != len(self.weights):
            raise ValueError(
                f"mac_hidden must have one matrix per hop: expected "
                f"{len(self.weights)}, got {len(self.mac_hidden)}"
            )
        vocab_size = len(self.mac_vocabulary)
        for hop, hidden in enumerate(self.mac_hidden):
            if hidden.shape[0] != vocab_size:
                raise ValueError(
                    f"mac_hidden[{hop}] has {hidden.shape[0]} rows but the "
                    f"vocabulary has {vocab_size} MACs"
                )
        # The recurrence chains dimensions: at hop k the concat of the self
        # representation and the aggregated mac_hidden[k-1] (both of the
        # previous layer's width) feeds weights[k-1].  A matrix that breaks
        # the chain must fail here, not as a matmul error mid-request.
        dims = [int(self.mac_hidden[0].shape[1])] + [
            int(weight.shape[1]) for weight in self.weights
        ]
        for hop, (weight, hidden) in enumerate(zip(self.weights, self.mac_hidden)):
            if hidden.shape[1] != dims[hop]:
                raise ValueError(
                    f"mac_hidden[{hop}] has width {hidden.shape[1]}, expected "
                    f"{dims[hop]} to match the recurrence"
                )
            if weight.shape[0] != 2 * dims[hop]:
                raise ValueError(
                    f"weights[{hop}] has {weight.shape[0]} rows, expected "
                    f"{2 * dims[hop]} (concat of self and aggregated parts)"
                )
        self._mac_row = {mac: row for row, mac in enumerate(self.mac_vocabulary)}
        self._activation = get_activation(self.activation)
        self._batch_translation = None
        self._stacked_hidden = None

    # -- shape accessors -------------------------------------------------------

    @property
    def num_hops(self) -> int:
        """Number of aggregation iterations ``K``."""
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        """Dimension of the initial representations ``r^0``."""
        return int(self.mac_hidden[0].shape[1])

    @property
    def embedding_dim(self) -> int:
        """Dimension of the output embeddings."""
        return int(self.weights[-1].shape[1])

    def knows_mac(self, mac: str) -> bool:
        """Whether a MAC address was seen during training."""
        return mac in self._mac_row

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_model(
        cls,
        model: RFGNN,
        sample_sizes: Optional[Sequence[int]] = None,
        passes: int = 1,
    ) -> "FrozenEncoder":
        """Snapshot a trained model into a graph-free encoder.

        Parameters
        ----------
        model:
            The trained RF-GNN (still attached to its training graph).
        sample_sizes:
            Per-hop neighbourhood sizes used while precomputing the MAC
            representations; defaults to the model's training-time sizes.
            Larger sizes approximate full-neighbourhood aggregation.
        passes:
            Forward passes averaged per MAC representation; averaging
            reduces neighbourhood-sampling variance (the result is
            re-normalised onto the unit sphere the recurrence expects).
        """
        if passes < 1:
            raise ValueError("passes must be >= 1")
        if sample_sizes is not None and len(sample_sizes) != model.config.num_hops:
            raise ValueError(
                f"sample_sizes must have {model.config.num_hops} entries, "
                f"got {len(sample_sizes)}"
            )
        graph = model.graph.freeze()
        mac_ids = graph.mac_ids
        vocabulary = [str(key) for key in graph.keys[mac_ids]]
        hidden: List[np.ndarray] = [model.node_features[mac_ids].copy()]
        for hop in range(1, model.config.num_hops):
            hop_sizes = None if sample_sizes is None else tuple(sample_sizes)[-hop:]
            stacked = np.mean(
                [
                    model.embed_nodes(mac_ids, sample_sizes=hop_sizes, num_hops=hop)
                    for _ in range(passes)
                ],
                axis=0,
            )
            norms = np.linalg.norm(stacked, axis=1, keepdims=True)
            hidden.append(stacked / np.maximum(norms, 1e-12))
        return cls(
            weights=[w.copy() for w in model.weights],
            activation=model.config.activation,
            mac_vocabulary=vocabulary,
            mac_hidden=hidden,
            rss_offset_db=graph.offset_db,
            attention=model.config.attention,
        )

    # -- online embedding ------------------------------------------------------

    def embed_records(
        self, records: Sequence[SignalRecord]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Embed out-of-graph records through the frozen recurrence.

        Returns ``(embeddings, known_mac_fraction)`` where ``embeddings`` has
        shape ``(len(records), embedding_dim)`` (rows L2-normalised) and
        ``known_mac_fraction[i]`` is the fraction of record ``i``'s readings
        whose MAC is in the training vocabulary.  A record with no known MAC
        gets a zero embedding and fraction ``0.0`` — callers should treat
        such rows as unreliable (the pipeline maps them to the largest
        cluster with confidence 0).

        The records are columnarised into the flat per-reading arrays
        :meth:`embed_batch` feeds the same kernel: one ``np.fromiter`` over
        dict probes of every MAC (``-1`` for an unknown one, so unknown MACs
        grow no table), one over every RSS value, and the per-record
        reading counts — three C-speed passes, no per-reading Python loop.
        """
        readings = [record.readings for record in records]
        lengths = list(map(len, readings))
        total = sum(lengths)
        rows = np.fromiter(
            map(self._mac_row.get, chain.from_iterable(readings), repeat(-1)),
            dtype=np.int64,
            count=total,
        )
        rss = np.fromiter(
            chain.from_iterable(map(dict.values, readings)),
            dtype=np.float64,
            count=total,
        )
        return self._embed_columns(rows, rss, np.array(lengths, dtype=np.int64))

    def embed_batch(self, batch: RecordBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Embed a columnar batch; bit-identical to :meth:`embed_records`.

        The batch's interned MAC ids are translated to encoder rows with a
        single ``np.take`` against a cached per-vocabulary translation table
        (extended in place as the append-only vocabulary grows), then fed to
        the same kernel as the record path.
        """
        rows = self._vocab_rows(batch.vocab)[batch.mac_ids]
        return self._embed_columns(rows, batch.rss, batch.reading_counts, batch.indptr)

    #: Target byte size of the per-chunk contribution matrix of the
    #: embedding kernel.  Chunks this size keep every temporary
    #: cache-resident, which is both faster and far less sensitive to memory
    #: bandwidth contention than materialising one (readings x widths)
    #: matrix for the whole batch.
    _CHUNK_BYTES = 1 << 20

    def _embed_columns(
        self,
        rows: np.ndarray,
        rss: np.ndarray,
        counts: np.ndarray,
        indptr: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Embed flat per-reading columns, in cache-sized record chunks.

        ``rows`` holds each reading's encoder row (``-1`` = unknown MAC),
        ``rss`` its value and ``counts`` the readings per record, records
        back to back.  Records are independent, so chunking changes no
        per-record result; a batch that fits in one chunk (every
        request-sized one) makes a single kernel call.
        """
        readings_per_chunk = max(
            256, self._CHUNK_BYTES // (8 * self._stacked_mac_hidden().shape[1])
        )
        if rows.shape[0] <= readings_per_chunk:
            return self._embed_chunk(rows, rss, counts)
        if indptr is None:
            indptr = np.concatenate([[0], np.cumsum(counts)])
        num_records = counts.shape[0]
        embeddings = np.empty((num_records, self.embedding_dim), dtype=np.float64)
        known_fraction = np.empty(num_records, dtype=np.float64)
        start = 0
        while start < num_records:
            stop = int(
                np.searchsorted(indptr, indptr[start] + readings_per_chunk, side="left")
            )
            # No chunk of one record out of many: numpy runs a one-row
            # matmul as a matrix-vector product, whose last bits can differ
            # from the same row inside a matrix product.
            stop = max(stop, start + 2)
            if stop >= num_records - 1:
                stop = num_records
            flat = slice(int(indptr[start]), int(indptr[stop]))
            embeddings[start:stop], known_fraction[start:stop] = self._embed_chunk(
                rows[flat], rss[flat], counts[start:stop]
            )
            start = stop
        return embeddings, known_fraction

    def _embed_chunk(
        self, rows: np.ndarray, rss: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The embedding kernel: one chunk of records through the recurrence.

        Unknown MACs (``rows == -1``) are skipped.  Every hop aggregates with
        the same (owner, row, coefficient) triples — only the neighbour
        features differ — so all hops share one gather and one scatter over
        the horizontally stacked ``mac_hidden`` matrices.  The scatter is a
        single ``np.bincount`` over a flattened (owner, column) composite
        index, whose row-major order adds each record's readings
        left-to-right.
        """
        num_records = counts.shape[0]
        stacked = self._stacked_mac_hidden()
        total_width = stacked.shape[1]
        known = rows >= 0
        owner_index = np.arange(num_records, dtype=np.int64).repeat(counts)[known]
        row_index = rows[known]
        if self.attention:
            # A reading at exactly the validity floor (-120 dBm with the
            # default offset) would get weight 0, which the strict
            # training-graph path rejects; online we clamp instead of
            # failing the whole batch over one barely-audible AP.  The
            # weight is *squared* because the trained pipeline composes
            # w-proportional neighbour sampling with w-proportional
            # aggregation coefficients: in the full-neighbourhood limit this
            # inference path replicates, neighbour j's effective coefficient
            # is proportional to w_j^2.
            edge_weights = np.square(np.maximum(rss[known] + self.rss_offset_db, 1e-6))
        else:
            # No-attention models aggregate neighbours with a uniform mean.
            edge_weights = np.ones(owner_index.size, dtype=np.float64)
        known_fraction = np.bincount(owner_index, minlength=num_records) / counts
        weight_sums = np.bincount(owner_index, weights=edge_weights, minlength=num_records)
        coefficients = edge_weights / weight_sums[owner_index]

        contributions = stacked.take(row_index, axis=0)
        contributions *= coefficients[:, None]
        composite = (
            owner_index[:, None] * total_width + np.arange(total_width, dtype=np.int64)
        ).ravel()
        aggregated_all = np.bincount(
            composite,
            weights=contributions.ravel(),
            minlength=num_records * total_width,
        ).reshape(num_records, total_width)

        # Cold-start records carry no learned self representation (see module
        # docstring): the self path starts at zero and the observed-MAC
        # aggregation supplies all the signal.
        hidden = np.zeros((num_records, self.input_dim), dtype=np.float64)
        offset = 0
        for hop in range(self.num_hops):
            width = self.mac_hidden[hop].shape[1]
            aggregated = aggregated_all[:, offset : offset + width]
            offset += width
            concatenated = np.concatenate([hidden, aggregated], axis=1)
            activated = self._activation.forward(concatenated @ self.weights[hop])
            # The row L2 norm exactly as np.linalg.norm computes it, minus
            # its Python dispatch.
            norms = np.sqrt(np.add.reduce(activated * activated, axis=1, keepdims=True))
            hidden = activated / np.maximum(norms, 1e-12)
        return hidden, known_fraction

    def _stacked_mac_hidden(self) -> np.ndarray:
        """All per-hop MAC representations side by side (cached).

        ``(vocab_size, sum of hop widths)``; hop ``k``'s block starts at the
        sum of the previous widths.  Immutable once built — the encoder's
        matrices never change after construction.
        """
        if self._stacked_hidden is None:
            self._stacked_hidden = np.ascontiguousarray(
                np.concatenate(self.mac_hidden, axis=1)
            )
        return self._stacked_hidden

    def _vocab_rows(self, vocab: MacVocab) -> np.ndarray:
        """Encoder row of every vocab id (``-1`` = unknown), cached per vocab.

        The vocabulary is append-only, so a cached table is only ever
        *extended*; a different vocabulary object replaces the cache (one
        deployment shares one vocab, so thrashing would be a caller bug).

        Thread-safety: fleet-server workers can call this concurrently on a
        shared encoder, so the cache is one ``(vocab, table)`` tuple —
        published in a single reference assignment, read once — and never
        two separately-mutated attributes that could be observed mismatched.
        The MAC list is snapshotted before sizing, so a concurrent intern
        cannot desynchronise the iterator from its ``count``.  Concurrent
        rebuilds are benign: both threads compute a correct table and the
        last published one wins.
        """
        mac_row = self._mac_row
        cached = self._batch_translation
        if cached is None or cached[0] is not vocab:
            macs = vocab.macs  # snapshot: len() and contents must agree
            table = np.fromiter(
                (mac_row.get(mac, -1) for mac in macs),
                dtype=np.int64,
                count=len(macs),
            )
            self._batch_translation = (vocab, table)
            return table
        table = cached[1]
        if table.shape[0] < len(vocab):
            grown = vocab.macs[table.shape[0] :]
            extension = np.fromiter(
                (mac_row.get(mac, -1) for mac in grown),
                dtype=np.int64,
                count=len(grown),
            )
            table = np.concatenate([table, extension])
            self._batch_translation = (vocab, table)
        return table

    def embed_record(self, record: SignalRecord) -> np.ndarray:
        """Embed a single record (convenience wrapper)."""
        return self.embed_records([record])[0][0]
