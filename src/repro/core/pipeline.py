"""The end-to-end FIS-ONE system (paper Figure 2).

``FisOne.fit(dataset, labeled_record_id, labeled_floor)`` runs:

1. bipartite graph construction from the crowdsourced signals,
2. unsupervised RF-GNN training and signal-sample embedding,
3. hierarchical clustering into one cluster per floor,
4. spillover-based cluster indexing anchored at the single labeled sample,

and returns a :class:`FittedFisOne`: the per-record predictions *plus* a
frozen, graph-free encoder and per-cluster centroids, so new records can be
floor-labeled online (nearest centroid in embedding space) without
retraining — the substrate of :mod:`repro.serving`.
``fit_predict`` remains the thin wrapper returning just the
:class:`FisOneResult`, which carries the predicted floor of every record
along with all the intermediate artefacts (embeddings, clustering, cluster
order) so that the evaluation harness and the ablation benchmarks can
inspect each stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.clustering.assignments import ClusterAssignment
from repro.clustering.hierarchical import HierarchicalClustering
from repro.clustering.kmeans import KMeans
from repro.core.config import FisOneConfig
from repro.gnn.frozen import FrozenEncoder
from repro.gnn.trainer import RFGNNTrainer, TrainingHistory
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import AnyGraph, CSRGraph
from repro.indexing.arbitrary import ArbitraryFloorIndexer
from repro.indexing.indexer import ClusterIndexer, IndexingResult
from repro.indexing.similarity import cluster_mac_frequencies
from repro.signals.batch import RecordBatch
from repro.signals.dataset import SignalDataset
from repro.signals.record import SignalRecord

#: Softmax temperature over centroid cosine similarities when scoring online
#: floor assignments; similarities live in [-1, 1], so a small temperature
#: spreads the resulting confidence usefully over (1/num_floors, 1).
CONFIDENCE_TEMPERATURE = 0.1


@dataclass(frozen=True)
class FisOneResult:
    """Everything FIS-ONE produced for one building.

    Attributes
    ----------
    floor_labels:
        Predicted floor of every record, in dataset record order.
    assignment:
        The cluster assignment before indexing.
    indexing:
        The indexing result (cluster order, cluster -> floor mapping).
    embeddings:
        Signal-sample embeddings in dataset record order.
    training_history:
        RF-GNN loss trajectory.
    """

    floor_labels: np.ndarray
    assignment: ClusterAssignment
    indexing: IndexingResult
    embeddings: np.ndarray
    training_history: TrainingHistory

    def predicted_floor_of(self, dataset: SignalDataset, record_id: str) -> int:
        """Predicted floor of one record."""
        return int(self.floor_labels[dataset.index_of(record_id)])

    def floors_by_record_id(self, dataset: SignalDataset) -> Dict[str, int]:
        """Mapping record id -> predicted floor."""
        return {
            record.record_id: int(floor)
            for record, floor in zip(dataset, self.floor_labels)
        }


@dataclass(frozen=True)
class FittedFisOne:
    """A fitted FIS-ONE model for one building.

    Produced by :meth:`FisOne.fit`.  Carries the training-time result plus
    everything needed to label *new* records online — the frozen encoder and
    the cluster centroids — without the training graph or a refit.  It is the
    unit the serving layer persists (:mod:`repro.serving.artifacts`) and
    multiplexes (:mod:`repro.serving.registry`).

    Attributes
    ----------
    config:
        The pipeline configuration used for fitting.
    building_id:
        Identifier of the fitted building (may be ``None``).
    num_floors:
        Number of floors the model was fitted with.
    record_ids:
        Training record ids, aligned with ``result.floor_labels``.
    result:
        The full training-time :class:`FisOneResult`.
    encoder:
        Frozen, graph-free RF-GNN encoder for out-of-dataset records.
    centroids:
        ``(num_clusters, embedding_dim)`` L2-normalised cluster centroids in
        cluster-label order (an empty cluster leaves a zero row).
    graph:
        The frozen CSR training graph.  Persisted by the serving layer so a
        loaded model can warm-start ``add_record``-style graph growth (see
        :meth:`warm_start_graph`) without re-parsing the dataset; ``None``
        for artifacts saved without it.
    model_version:
        Monotonic model generation: 0 for a fresh fit, bumped by every
        :meth:`refresh`.  Persisted in the artifact manifest so a store
        records which generation it holds.
    lineage:
        Human-readable provenance trail, one entry per refresh that produced
        this model (empty for a fresh fit).  Persisted alongside
        ``model_version``.
    """

    config: FisOneConfig
    building_id: Optional[str]
    num_floors: int
    record_ids: Tuple[str, ...]
    result: FisOneResult
    encoder: FrozenEncoder
    centroids: np.ndarray
    graph: Optional[CSRGraph] = None
    model_version: int = 0
    lineage: Tuple[str, ...] = ()

    @property
    def floor_labels(self) -> np.ndarray:
        """Predicted floor of every training record, in record order."""
        return self.result.floor_labels

    @property
    def cluster_to_floor(self) -> Dict[int, int]:
        """Mapping cluster label -> floor number from the indexing stage."""
        return self.result.indexing.cluster_to_floor

    # Immutable-after-fit derivations, cached on first use so the serving hot
    # path does not redo O(num_records) work per request batch.

    @cached_property
    def _cluster_sizes(self) -> np.ndarray:
        return np.bincount(
            self.result.assignment.labels,
            minlength=self.result.assignment.num_clusters,
        )

    @cached_property
    def _empty_clusters(self) -> np.ndarray:
        return np.flatnonzero(self._cluster_sizes == 0)

    @cached_property
    def _index_by_record_id(self) -> Dict[str, int]:
        return {record_id: i for i, record_id in enumerate(self.record_ids)}

    @cached_property
    def _floor_of_cluster(self) -> np.ndarray:
        """``cluster_to_floor`` as a dense int64 lookup array."""
        mapping = self.cluster_to_floor
        floors = np.zeros(self.result.assignment.num_clusters, dtype=np.int64)
        for cluster, floor in mapping.items():
            floors[int(cluster)] = int(floor)
        return floors

    def knows_record(self, record_id: str) -> bool:
        """Whether ``record_id`` was part of this model's training records."""
        return record_id in self._index_by_record_id

    def warm_start_graph(self) -> BipartiteGraph:
        """A mutable builder over the training graph, ready for ``add_record``.

        This is the dynamic-graph entry point after an artifact load: new
        crowdsourced records can be merged into the building's graph (for a
        later refit or incremental analysis) without re-parsing the original
        dataset.  Each call thaws a fresh, independent builder.

        Raises
        ------
        ValueError
            If the model carries no graph (e.g. a legacy artifact) — the
            concrete type is
            :class:`~repro.core.refresh.RefreshUnavailableError`, so fleet
            sweeps can skip unrefreshable models specifically.
        """
        if self.graph is None:
            from repro.core.refresh import RefreshUnavailableError

            raise RefreshUnavailableError(
                "this fitted model carries no training graph; re-save it with a "
                "current FisOne.fit() to enable warm-started graph growth"
            )
        return self.graph.thaw()

    def refresh(
        self,
        new_records: Union[Sequence[SignalRecord], RecordBatch],
        fine_tune_epochs: Optional[int] = None,
    ) -> "RefreshResult":  # noqa: F821 - forward ref into repro.core.refresh
        """Incrementally absorb new crowdsourced records without a full refit.

        Grows the persisted training graph with ``new_records``, fine-tunes
        the RF-GNN for a short budget warm-started from this model's encoder
        weights, re-clusters with centroids seeded from this fit, and
        re-anchors floor numbers so previously-seen records keep their
        labels.  Returns a :class:`~repro.core.refresh.RefreshResult` whose
        ``fitted`` is the next-generation model (``model_version`` bumped,
        lineage recorded) and whose ``report`` quantifies the refresh.

        A refresh is only as good as the records it ate: nothing here
        validates that the candidate actually *serves* better than its
        parent.  The serving layer closes that gap — a
        :class:`~repro.serving.drift.CanaryPolicy` scores each candidate on
        held-back traffic (:func:`repro.core.refresh.score_refresh_canary`)
        before it replaces the parent, versioned artifact retention keeps
        superseded generations on disk, and
        :meth:`~repro.serving.registry.BuildingRegistry.rollback` restores
        one when a bad refresh ships anyway.

        See :func:`repro.core.refresh.refresh_fitted` for the mechanics.
        """
        from repro.core.refresh import refresh_fitted

        return refresh_fitted(self, new_records, fine_tune_epochs=fine_tune_epochs)

    # -- online inference ------------------------------------------------------

    def online_floors(
        self, records: Sequence[SignalRecord]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Label out-of-dataset records by nearest cluster centroid.

        Returns ``(floors, confidences, known_mac_fractions)``, all of length
        ``len(records)``.  The confidence is the softmax (temperature
        :data:`CONFIDENCE_TEMPERATURE`) of the centroid cosine similarities,
        zeroed for records sharing no MAC with the training vocabulary —
        those fall back to the floor of the largest cluster.  An empty batch
        returns three empty arrays.
        """
        embeddings, known_fraction = self.encoder.embed_records(records)
        return self._floors_from_embeddings(embeddings, known_fraction)

    def online_floors_batch(
        self, batch: RecordBatch
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`online_floors` over a columnar batch, bit-identically.

        Embeds through :meth:`~repro.gnn.frozen.FrozenEncoder.embed_batch`
        (one vocabulary-table ``np.take`` per batch) into the same encoder
        kernel and centroid step as the record-list path.
        """
        embeddings, known_fraction = self.encoder.embed_batch(batch)
        return self._floors_from_embeddings(embeddings, known_fraction)

    def _floors_from_embeddings(
        self, embeddings: np.ndarray, known_fraction: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest-centroid floors + softmax confidences for embedded rows."""
        similarities = embeddings @ self.centroids.T
        # An empty cluster has no centroid to be near; bar it from winning
        # (its zero row would otherwise beat all-negative similarities).
        empty = self._empty_clusters
        if empty.size:
            similarities[:, empty] = -np.inf
        clusters = similarities.argmax(axis=1)
        scaled = similarities / CONFIDENCE_TEMPERATURE
        scaled -= scaled.max(axis=1, keepdims=True)
        # The winner's softmax probability: its shifted score is exactly 0,
        # so its numerator exp(0) is exactly 1.
        confidences = 1.0 / np.exp(scaled).sum(axis=1)
        if not known_fraction.all():
            blind = known_fraction == 0.0
            clusters[blind] = int(np.argmax(self._cluster_sizes))
            confidences[blind] = 0.0
        return self._floor_of_cluster[clusters], confidences, known_fraction

    def predict(self, dataset: SignalDataset) -> np.ndarray:
        """Predicted floor of every record of ``dataset``, in dataset order.

        Records that were part of the training dataset get their stored
        (transductive) prediction — so ``predict`` on the training dataset
        reproduces ``result.floor_labels`` exactly, including after an
        artifact save/load round trip.  Unseen records are labeled online
        through the frozen encoder.
        """
        index_by_id = self._index_by_record_id
        labels = np.empty(len(dataset), dtype=np.int64)
        new_records: List[SignalRecord] = []
        new_positions: List[int] = []
        for position, record in enumerate(dataset):
            stored = index_by_id.get(record.record_id)
            if stored is None:
                new_records.append(record)
                new_positions.append(position)
            else:
                labels[position] = self.result.floor_labels[stored]
        if new_records:
            floors, _, _ = self.online_floors(new_records)
            labels[new_positions] = floors
        return labels


class FisOne:
    """Floor identification with one labeled sample.

    Parameters
    ----------
    config:
        Pipeline configuration; the defaults reproduce the paper's system.

    Examples
    --------
    >>> from repro.simulate import generate_single_building
    >>> from repro.core import FisOne
    >>> labeled = generate_single_building(num_floors=3, samples_per_floor=30, seed=1)
    >>> anchor = labeled.pick_labeled_sample(floor=0)
    >>> observed = labeled.strip_labels(keep_record_ids=[anchor.record_id])
    >>> result = FisOne().fit_predict(observed, anchor.record_id, labeled_floor=0)
    >>> len(result.floor_labels) == len(observed)
    True
    """

    def __init__(self, config: Optional[FisOneConfig] = None) -> None:
        self.config = config or FisOneConfig()

    # -- pipeline stages -----------------------------------------------------------

    def build_graph(self, dataset: SignalDataset) -> CSRGraph:
        """Stage 1: the weighted bipartite MAC-sample graph (frozen CSR view).

        Assembled vectorised straight from the dataset — node ids and
        neighbour order are identical to the mutable
        :class:`~repro.graph.bipartite.BipartiteGraph` builder's, several
        times faster at fleet scale.
        """
        return CSRGraph.from_dataset(dataset)

    def embed(self, graph: AnyGraph) -> tuple:
        """Stage 2: train RF-GNN without labels and embed the sample nodes.

        Returns ``(sample_embeddings, training_history)``.
        """
        trainer = self._train_encoder(graph)
        return self._inference_embeddings(trainer), trainer.history

    def _train_encoder(self, graph: AnyGraph) -> RFGNNTrainer:
        """Train the RF-GNN on the building's graph and return the trainer."""
        config = self.config
        trainer = RFGNNTrainer(
            graph,
            config.gnn,
            walk_config=config.walks,
            num_epochs=config.num_epochs,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            negatives_per_pair=config.negatives_per_pair,
            max_pairs_per_epoch=config.max_pairs_per_epoch,
            seed=config.seed,
        )
        # The pipeline embeds separately (with inference-time sample sizes),
        # so the full-graph embedding pass fit() would run is pure waste —
        # skip it while consuming the identical sampler RNG draws.
        trainer.fit(return_embeddings=False)
        return trainer

    def _inference_embeddings(self, trainer: RFGNNTrainer) -> np.ndarray:
        """Averaged, L2-normalised sample embeddings from a trained encoder."""
        config = self.config
        passes = [
            trainer.sample_embeddings(sample_sizes=config.inference_sample_sizes)
            for _ in range(config.inference_passes)
        ]
        embeddings = np.mean(passes, axis=0)
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        return embeddings / np.maximum(norms, 1e-12)

    def cluster(self, embeddings: np.ndarray, num_floors: int) -> ClusterAssignment:
        """Stage 3: group the sample embeddings into one cluster per floor."""
        if self.config.clustering == "kmeans":
            labels = KMeans(num_floors, seed=self.config.seed).fit_predict(embeddings)
        else:
            labels = HierarchicalClustering(
                num_floors, linkage=self.config.linkage
            ).fit_predict(embeddings)
        return ClusterAssignment(labels=labels, num_clusters=num_floors)

    def index_clusters(
        self,
        dataset: SignalDataset,
        assignment: ClusterAssignment,
        labeled_record_id: str,
        labeled_floor: int,
        embeddings: np.ndarray,
        graph: Optional[AnyGraph] = None,
    ) -> IndexingResult:
        """Stage 4: assign floor numbers to clusters via the spillover TSP.

        When the dataset's bipartite ``graph`` is available the per-cluster
        MAC profile is counted vectorised from its CSR arrays instead of a
        per-reading Python pass over the dataset (bit-identical counts).
        """
        num_floors = assignment.num_clusters
        profile = (
            None
            if graph is None
            else cluster_mac_frequencies(dataset, assignment, graph=graph)
        )
        if labeled_floor in (0, num_floors - 1):
            indexer = ClusterIndexer(
                similarity=self.config.similarity, tsp_method=self.config.tsp_method
            )
            return indexer.index(
                dataset, assignment, labeled_record_id, labeled_floor, profile=profile
            )
        arbitrary = ArbitraryFloorIndexer(
            similarity=self.config.similarity, tsp_method=self.config.tsp_method
        )
        return arbitrary.index(
            dataset,
            assignment,
            labeled_record_id,
            labeled_floor,
            embeddings,
            profile=profile,
        )

    # -- end-to-end -------------------------------------------------------------------

    def fit(
        self,
        dataset: SignalDataset,
        labeled_record_id: str,
        labeled_floor: int = 0,
        num_floors: Optional[int] = None,
    ) -> FittedFisOne:
        """Run the full pipeline and return a reusable fitted model.

        Parameters
        ----------
        dataset:
            The crowdsourced signals.  Labels other than the anchor record's
            are ignored (the pipeline never reads them), so passing a fully
            labeled evaluation dataset is safe.
        labeled_record_id:
            Record id of the single labeled sample.
        labeled_floor:
            Floor of that sample — 0 (bottom) in the paper's main scenario;
            any floor is accepted and triggers the Section VI extension.
        num_floors:
            Number of floors; defaults to ``dataset.num_floors``.
        """
        result, trainer, num_floors = self._run_pipeline(
            dataset, labeled_record_id, labeled_floor, num_floors
        )
        encoder = trainer.frozen_encoder(
            sample_sizes=self.config.inference_sample_sizes,
            passes=self.config.inference_passes,
        )
        return FittedFisOne(
            config=self.config,
            building_id=dataset.building_id,
            num_floors=num_floors,
            record_ids=tuple(dataset.record_ids),
            result=result,
            encoder=encoder,
            centroids=cluster_centroids(result.embeddings, result.assignment),
            # Cache-free view: the trainer's graph carries padded alias
            # tables the serving model never samples from again.
            graph=trainer.graph.without_caches(),
        )

    def fit_predict(
        self,
        dataset: SignalDataset,
        labeled_record_id: str,
        labeled_floor: int = 0,
        num_floors: Optional[int] = None,
    ) -> FisOneResult:
        """Run the full pipeline and return just the training-time result.

        Thin wrapper over the same pipeline run as :meth:`fit` (same
        parameters), skipping only the serving-encoder snapshot — the
        evaluation harness calls this per building and should not pay for
        an encoder it discards.
        """
        return self._run_pipeline(dataset, labeled_record_id, labeled_floor, num_floors)[0]

    def _run_pipeline(
        self,
        dataset: SignalDataset,
        labeled_record_id: str,
        labeled_floor: int,
        num_floors: Optional[int],
    ) -> Tuple[FisOneResult, RFGNNTrainer, int]:
        """Validate inputs and run stages 1-4; shared by fit and fit_predict."""
        if labeled_record_id not in dataset:
            raise KeyError(f"labeled record {labeled_record_id!r} is not in the dataset")
        num_floors = num_floors or dataset.num_floors
        if num_floors < 2:
            raise ValueError("floor identification needs at least two floors")
        if not (0 <= labeled_floor < num_floors):
            raise ValueError(
                f"labeled_floor {labeled_floor} is outside [0, {num_floors})"
            )

        graph = self.build_graph(dataset)
        trainer = self._train_encoder(graph)
        embeddings = self._inference_embeddings(trainer)
        assignment = self.cluster(embeddings, num_floors)
        indexing = self.index_clusters(
            dataset,
            assignment,
            labeled_record_id,
            labeled_floor,
            embeddings,
            graph=trainer.graph,
        )
        result = FisOneResult(
            floor_labels=indexing.floor_labels,
            assignment=assignment,
            indexing=indexing,
            embeddings=embeddings,
            training_history=trainer.history,
        )
        return result, trainer, num_floors


def cluster_centroids(
    embeddings: np.ndarray, assignment: ClusterAssignment
) -> np.ndarray:
    """L2-normalised centroid of every cluster, in cluster-label order.

    An empty cluster leaves a zero row; nearest-centroid assignment
    (:meth:`FittedFisOne.online_floors`) masks such rows out explicitly,
    since a zero row would beat real centroids whenever every cosine
    similarity is negative.
    """
    centroids = np.zeros((assignment.num_clusters, embeddings.shape[1]), dtype=np.float64)
    for cluster in range(assignment.num_clusters):
        members = assignment.members(cluster)
        if members.size == 0:
            continue
        centroid = embeddings[members].mean(axis=0)
        centroids[cluster] = centroid / max(float(np.linalg.norm(centroid)), 1e-12)
    return centroids
