"""Versioned persistence of fitted FIS-ONE models.

A fitted model is saved as a *directory* holding two files, mirroring the
format-version discipline of :mod:`repro.signals.io`:

* ``manifest.json`` — format version, building metadata, the MAC vocabulary,
  record ids, the cluster → floor index, the loss trajectory, and the full
  pipeline configuration (so a loaded model knows exactly how it was made);
* ``arrays.bin`` — every NumPy artefact, as one flat array bundle
  (:mod:`repro.serving.bundle`): the trained ``W_k`` matrices, the per-hop
  frozen MAC representations, the normalised sample embeddings, the
  cluster centroids, cluster labels, floor labels, the cluster similarity
  matrix, and the frozen CSR training graph (``indptr``/``indices``/
  ``weights`` plus node-kind and key tables), so a loaded model can
  warm-start ``add_record``-style graph growth without re-parsing the
  dataset.  A load is one read-only ``mmap`` of this file plus
  ``np.frombuffer`` views.

``load_artifacts(save_artifacts(fitted))`` reconstructs a
:class:`~repro.core.pipeline.FittedFisOne` whose ``predict`` reproduces the
original floor labels exactly and whose online labeling is bit-identical to
the in-memory model's.
"""

from __future__ import annotations

import dataclasses
import json
import mmap
import os
import re
import shutil
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.clustering.assignments import ClusterAssignment
from repro.core.config import FisOneConfig
from repro.core.pipeline import FisOneResult, FittedFisOne
from repro.gnn.frozen import FrozenEncoder
from repro.gnn.model import RFGNNConfig
from repro.gnn.trainer import TrainingHistory
from repro.graph.bipartite import RSS_OFFSET_DB
from repro.graph.csr import CSRGraph
from repro.graph.walks import WalkConfig
from repro.indexing.indexer import IndexingResult
from repro.serving.bundle import bundle_views, pack_bundle

PathLike = Union[str, Path]

#: Format version written into every manifest so future readers can detect
#: and reject incompatible artifact directories.  Version 1 stored the
#: arrays as ``arrays.npz``; version 2 stores one flat bundle.
ARTIFACT_FORMAT_VERSION = 2

#: File names inside an artifact directory.
MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME = "arrays.bin"

#: Pointer file of a *versioned* store: names the generation subdirectory
#: currently being served.  Swapped with ``os.replace`` so readers always see
#: either the old or the new pointer, never a torn one.
CURRENT_FILENAME = "CURRENT"

#: Generation subdirectories are named ``v<model_version>``.
_VERSION_DIR_RE = re.compile(r"^v(\d+)$")

#: Temp files older than this are leftovers of a crashed writer and are
#: swept on the next save (live writers finish in well under this).
STALE_TMP_MAX_AGE_S = 600.0

_REQUIRED_MANIFEST_KEYS = (
    "format_version",
    "save_token",
    "num_floors",
    "record_ids",
    "mac_vocabulary",
    "activation",
    "rss_offset_db",
    "attention",
    "num_hops",
    "cluster_order",
    "cluster_to_floor",
    "epoch_losses",
    "config",
)


class ArtifactError(ValueError):
    """Raised when an artifact directory is missing, incomplete, or incompatible."""


def config_to_dict(config: FisOneConfig) -> Dict:
    """Serialise a pipeline configuration to a JSON-compatible dictionary."""
    return dataclasses.asdict(config)


def config_from_dict(payload: Dict) -> FisOneConfig:
    """Reconstruct a :class:`FisOneConfig` from :func:`config_to_dict` output."""
    gnn_payload = dict(payload["gnn"])
    gnn_payload["neighbor_sample_sizes"] = tuple(gnn_payload["neighbor_sample_sizes"])
    walks_payload = dict(payload["walks"])
    rest = {
        key: value for key, value in payload.items() if key not in ("gnn", "walks")
    }
    rest["inference_sample_sizes"] = tuple(rest["inference_sample_sizes"])
    return FisOneConfig(
        gnn=RFGNNConfig(**gnn_payload), walks=WalkConfig(**walks_payload), **rest
    )


def save_artifacts(
    fitted: FittedFisOne,
    directory: PathLike,
    include_graph: bool = True,
    keep_generations: Optional[int] = None,
) -> Path:
    """Write a fitted model to ``directory`` and return that path.

    ``include_graph`` controls whether the frozen CSR training graph is
    persisted alongside the serving state; it enables
    :meth:`~repro.core.pipeline.FittedFisOne.warm_start_graph` after a load
    but costs O(edges) disk, so fleets that never grow graphs offline can
    switch it off.

    ``keep_generations`` switches the store into *retention mode*: each
    generation is written to a per-version subdirectory
    (``v<model_version>``) and a ``CURRENT`` pointer file is swapped in
    atomically afterwards, so prior generations survive an overwrite and
    remain loadable via ``load_artifacts(..., version=N)`` — the raw
    material for :meth:`~repro.serving.registry.BuildingRegistry.rollback`.
    The newest ``keep_generations`` generations (counting the one being
    written) are retained; older ones are pruned.  A store that already
    carries a ``CURRENT`` pointer stays versioned even when a later save
    omits ``keep_generations`` (nothing is pruned then); a flat store being
    upgraded has its existing generation migrated into a version
    subdirectory first, so the pre-upgrade model stays rollback-eligible.

    The directory is created if needed.  Both files are written to
    temporary names and swapped in with ``os.replace`` (arrays first,
    manifest last), so a reader never sees a torn or half-written file.
    A reader racing an *overwrite* of an existing artifact could still
    pair the old manifest with new arrays for the instant between the two
    renames; a per-save token stamped into both files lets
    :func:`load_artifacts` detect and reject that mismatched pairing.  In
    retention mode the new generation's files are fully written *before*
    the ``CURRENT`` swap, so a writer crashing mid-save leaves the pointer
    on the previous, fully-consistent generation.
    """
    directory = Path(directory)
    if keep_generations is not None and keep_generations < 1:
        raise ValueError(f"keep_generations must be >= 1, got {keep_generations}")
    directory.mkdir(parents=True, exist_ok=True)
    versioned = keep_generations is not None or (directory / CURRENT_FILENAME).is_file()
    if not versioned:
        _write_artifact_files(fitted, directory, include_graph)
        return directory
    _migrate_flat_store(directory)
    target = directory / f"v{int(fitted.model_version)}"
    _write_artifact_files(fitted, target, include_graph)
    _swap_current(directory, target.name)
    if keep_generations is not None:
        _prune_generations(directory, keep_generations)
    _sweep_stale_tmp_files(directory)
    return directory


def _write_artifact_files(
    fitted: FittedFisOne,
    directory: Path,
    include_graph: bool,
) -> str:
    """Write ``manifest.json`` + ``arrays.bin`` into ``directory`` (created
    if needed) with the atomic two-file swap; returns the save token."""
    directory.mkdir(parents=True, exist_ok=True)
    _sweep_stale_tmp_files(directory)
    encoder = fitted.encoder
    result = fitted.result
    save_token = uuid.uuid4().hex

    arrays: Dict[str, np.ndarray] = {
        "save_token": np.array(save_token),
        "embeddings": result.embeddings,
        "centroids": fitted.centroids,
        "floor_labels": result.floor_labels,
        "cluster_labels": result.assignment.labels,
        "similarity": result.indexing.similarity,
    }
    for hop, weight in enumerate(encoder.weights):
        arrays[f"weight_{hop}"] = weight
    for hop, hidden in enumerate(encoder.mac_hidden):
        arrays[f"mac_hidden_{hop}"] = hidden
    if include_graph and fitted.graph is not None:
        graph = fitted.graph
        arrays["graph_indptr"] = graph.indptr
        arrays["graph_indices"] = graph.indices
        arrays["graph_weights"] = graph.weights
        arrays["graph_kinds"] = graph.kinds
        # A bundle holds no object arrays (nothing is ever pickled); store
        # the node keys as a fixed-width unicode array instead.
        arrays["graph_keys"] = np.asarray([str(key) for key in graph.keys])
    # Temp names carry the save token so two processes overwriting the same
    # building never collide on a shared temp inode.
    arrays_tmp = directory / f"{ARRAYS_FILENAME}.{save_token}.tmp"
    try:
        arrays_tmp.write_bytes(pack_bundle(arrays))
        os.replace(arrays_tmp, directory / ARRAYS_FILENAME)
    except BaseException:
        arrays_tmp.unlink(missing_ok=True)
        raise

    manifest = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "save_token": save_token,
        "building_id": fitted.building_id,
        # Model generation and provenance: bumped/extended by every
        # incremental refresh (repro.core.refresh), so a store records which
        # generation it holds and how it got there.
        "model_version": int(fitted.model_version),
        "lineage": list(fitted.lineage),
        "num_floors": fitted.num_floors,
        "record_ids": list(fitted.record_ids),
        "mac_vocabulary": list(encoder.mac_vocabulary),
        "activation": encoder.activation,
        "rss_offset_db": encoder.rss_offset_db,
        "attention": encoder.attention,
        "num_hops": encoder.num_hops,
        "graph_offset_db": (
            fitted.graph.offset_db
            if include_graph and fitted.graph is not None
            else None
        ),
        "cluster_order": [int(c) for c in result.indexing.cluster_order],
        "cluster_to_floor": {
            str(cluster): int(floor)
            for cluster, floor in result.indexing.cluster_to_floor.items()
        },
        "epoch_losses": [float(loss) for loss in result.training_history.epoch_losses],
        "config": config_to_dict(fitted.config),
    }
    manifest_tmp = directory / f"{MANIFEST_FILENAME}.{save_token}.tmp"
    try:
        with manifest_tmp.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        os.replace(manifest_tmp, directory / MANIFEST_FILENAME)
    except BaseException:
        manifest_tmp.unlink(missing_ok=True)
        raise
    return save_token


def _read_current(directory: Path) -> Optional[str]:
    """The generation subdirectory named by ``CURRENT``; ``None`` when the
    store is flat (no pointer file).  Raises :class:`ArtifactError` when the
    pointer exists but does not name a valid version directory."""
    pointer = directory / CURRENT_FILENAME
    try:
        name = pointer.read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        return None
    except OSError as error:
        raise ArtifactError(
            f"unreadable {CURRENT_FILENAME} in {directory}: {error}"
        ) from None
    if not _VERSION_DIR_RE.match(name):
        raise ArtifactError(
            f"corrupt {CURRENT_FILENAME} pointer in {directory}: {name!r}"
        )
    return name


def _swap_current(directory: Path, name: str) -> None:
    """Atomically repoint ``CURRENT`` at the generation subdirectory ``name``."""
    token = uuid.uuid4().hex
    pointer_tmp = directory / f"{CURRENT_FILENAME}.{token}.tmp"
    try:
        pointer_tmp.write_text(name + "\n", encoding="utf-8")
        os.replace(pointer_tmp, directory / CURRENT_FILENAME)
    except BaseException:
        pointer_tmp.unlink(missing_ok=True)
        raise


def _migrate_flat_store(directory: Path) -> None:
    """Move a flat store's generation into its ``v<model_version>``
    subdirectory and point ``CURRENT`` at it.

    Called when a flat store is first saved with retention enabled, so the
    pre-upgrade generation stays retained instead of being orphaned by the
    first versioned save.  ``CURRENT`` is written immediately after the move:
    a writer crashing between migration and its own save leaves a store that
    still loads the migrated generation.
    """
    if (directory / CURRENT_FILENAME).is_file():
        return
    manifest_path = directory / MANIFEST_FILENAME
    arrays_path = directory / ARRAYS_FILENAME
    if not manifest_path.is_file() or not arrays_path.is_file():
        return
    try:
        with manifest_path.open("r", encoding="utf-8") as handle:
            version = int(json.load(handle).get("model_version", 0))
    except (OSError, ValueError, TypeError):
        return  # unreadable flat manifest: leave it; versioned loads ignore it
    target = directory / f"v{version}"
    target.mkdir(parents=True, exist_ok=True)
    os.replace(arrays_path, target / ARRAYS_FILENAME)
    os.replace(manifest_path, target / MANIFEST_FILENAME)
    _swap_current(directory, target.name)


def _prune_generations(directory: Path, keep_generations: int) -> None:
    """Delete retained generations beyond the newest ``keep_generations``.

    The generation named by ``CURRENT`` is never pruned (a rollback may have
    repointed it at an old directory); the others are ranked by manifest
    write time so a rolled-back-then-refreshed store drops its stalest data
    first rather than the lowest version number.
    """
    current = _read_current(directory)
    entries = []
    for child in directory.iterdir():
        match = _VERSION_DIR_RE.match(child.name)
        if match is None or not child.is_dir() or child.name == current:
            continue
        try:
            mtime = (child / MANIFEST_FILENAME).stat().st_mtime
        except OSError:
            mtime = 0.0
        entries.append((mtime, int(match.group(1)), child))
    entries.sort()
    excess = len(entries) - (keep_generations - 1)
    for _, _, child in entries[: max(0, excess)]:
        shutil.rmtree(child, ignore_errors=True)


def list_versions(directory: PathLike) -> List[int]:
    """Model versions retained in a versioned store, sorted ascending.

    A flat (non-retention) store or a missing directory yields ``[]``; only
    subdirectories holding both artifact files count as retained.
    """
    directory = Path(directory)
    versions = []
    try:
        children = list(directory.iterdir())
    except OSError:
        return []
    for child in children:
        match = _VERSION_DIR_RE.match(child.name)
        if (
            match is not None
            and (child / MANIFEST_FILENAME).is_file()
            and (child / ARRAYS_FILENAME).is_file()
        ):
            versions.append(int(match.group(1)))
    return sorted(versions)


def current_version(directory: PathLike) -> Optional[int]:
    """The model version ``CURRENT`` points at, or ``None`` for flat stores."""
    directory = Path(directory)
    try:
        name = _read_current(directory)
    except ArtifactError:
        return None
    if name is None:
        return None
    match = _VERSION_DIR_RE.match(name)
    return int(match.group(1)) if match else None


def set_current_version(directory: PathLike, version: int) -> Path:
    """Atomically repoint a versioned store's ``CURRENT`` at a retained
    ``version`` and return that generation's directory.

    This is the persistence half of a rollback: the generation's files are
    already on disk, so the swap is a single ``os.replace`` of the pointer.

    Raises
    ------
    ArtifactError
        If ``version`` is not retained in ``directory``.
    """
    directory = Path(directory)
    target = directory / f"v{int(version)}"
    if not (target / MANIFEST_FILENAME).is_file() or not (
        target / ARRAYS_FILENAME
    ).is_file():
        raise ArtifactError(
            f"version {version} is not retained in {directory}; "
            f"retained versions: {list_versions(directory)}"
        )
    _swap_current(directory, target.name)
    return target


def _sweep_stale_tmp_files(directory: Path) -> None:
    """Best-effort removal of temp files left behind by a crashed writer."""
    now = time.time()
    for leftover in directory.glob("*.tmp*"):
        try:
            if now - leftover.stat().st_mtime > STALE_TMP_MAX_AGE_S:
                leftover.unlink()
        except OSError:  # racing writer or already gone — leave it be
            pass


def has_artifacts(directory: PathLike) -> bool:
    """Whether ``directory`` looks like a saved artifact (manifest + arrays).

    For versioned stores the check follows the ``CURRENT`` pointer into the
    served generation's subdirectory.
    """
    directory = Path(directory)
    try:
        current = _read_current(directory)
    except ArtifactError:
        return False
    if current is not None:
        directory = directory / current
    return (directory / MANIFEST_FILENAME).is_file() and (
        directory / ARRAYS_FILENAME
    ).is_file()


def _read_arrays(path: Path) -> Dict[str, np.ndarray]:
    """Read-only views of every array in one ``arrays.bin``.

    The file is mapped once, read-only, and the views share the page cache
    with every other process mapping the same artifact.  Saves replace
    ``arrays.bin`` by rename and never write into it, so a mapping of an
    older save stays valid after an overwrite.
    """
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return bundle_views(mapped)


def load_artifacts(directory: PathLike, version: Optional[int] = None) -> FittedFisOne:
    """Load a fitted model saved by :func:`save_artifacts`.

    ``arrays.bin`` is memory-mapped read-only (zero-copy): construction
    parses only the bundle header, the data pages fault in on first use,
    and processes serving the same store share physical pages.  The
    returned model's arrays are read-only views of that mapping; every
    consumer of a fitted model's arrays treats them as immutable (mutating
    stages such as :meth:`~repro.core.pipeline.FittedFisOne.refresh` copy
    before writing).

    In a versioned store (one written with ``keep_generations``), the load
    follows the ``CURRENT`` pointer by default; ``version=N`` opens the
    retained generation ``v<N>`` instead, whatever ``CURRENT`` says — this
    is how a rollback inspects candidate generations before repointing.

    Raises
    ------
    ArtifactError
        If the directory is not an artifact, the format version is
        unsupported (version 1 directories hold ``arrays.npz``), the arrays
        are not a well-formed bundle, required entries are missing, or
        ``version`` names a generation that is not retained.
    """
    directory = Path(directory)
    if version is not None:
        target = directory / f"v{int(version)}"
        if not (target / MANIFEST_FILENAME).is_file():
            raise ArtifactError(
                f"version {version} is not retained in {directory}; "
                f"retained versions: {list_versions(directory)}"
            )
        directory = target
    else:
        current = _read_current(directory)
        if current is not None:
            directory = directory / current
    manifest_path = directory / MANIFEST_FILENAME
    arrays_path = directory / ARRAYS_FILENAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no {MANIFEST_FILENAME} in {directory}")
    try:
        with manifest_path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise ArtifactError(f"unreadable manifest in {directory}: {error}") from None

    missing = [key for key in _REQUIRED_MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ArtifactError(f"manifest in {directory} is missing keys {missing}")
    version = manifest["format_version"]
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact format version {version}; "
            f"expected {ARTIFACT_FORMAT_VERSION}"
        )
    if not arrays_path.is_file():
        raise ArtifactError(f"no {ARRAYS_FILENAME} in {directory}")

    try:
        arrays = _read_arrays(arrays_path)
    except (OSError, ValueError) as error:
        raise ArtifactError(f"unreadable arrays in {directory}: {error}") from None
    num_hops = int(manifest["num_hops"])
    try:
        weights = [arrays[f"weight_{hop}"] for hop in range(num_hops)]
        mac_hidden = [arrays[f"mac_hidden_{hop}"] for hop in range(num_hops)]
        embeddings = arrays["embeddings"]
        centroids = arrays["centroids"]
        floor_labels = arrays["floor_labels"]
        cluster_labels = arrays["cluster_labels"]
        similarity = arrays["similarity"]
    except KeyError as error:
        raise ArtifactError(f"arrays in {directory} are missing {error}") from None

    arrays_token = arrays.get("save_token")
    if arrays_token is None or str(arrays_token.item()) != manifest["save_token"]:
        raise ArtifactError(
            f"artifact in {directory} is inconsistent: manifest and arrays come "
            "from different saves — either a concurrent overwrite was caught "
            "mid-swap (transient; retry the load) or a previous writer crashed "
            "between the two file swaps (permanent; re-save the model or delete "
            "the directory)"
        )

    graph: Optional[CSRGraph] = None
    if "graph_indptr" in arrays:
        stored_offset = manifest.get("graph_offset_db")
        try:
            graph = CSRGraph(
                indptr=arrays["graph_indptr"],
                indices=arrays["graph_indices"],
                weights=arrays["graph_weights"],
                kinds=arrays["graph_kinds"],
                keys=arrays["graph_keys"].astype(object),
                # Explicit None check: an offset of 0.0 is falsy but valid.
                offset_db=RSS_OFFSET_DB if stored_offset is None else float(stored_offset),
            )
        except (KeyError, ValueError) as error:
            raise ArtifactError(
                f"artifact in {directory} has a corrupt graph: {error!r}"
            ) from None

    record_ids = list(manifest["record_ids"])
    cluster_order = [int(c) for c in manifest["cluster_order"]]
    # Cross-check manifest against arrays: a torn overwrite or a partially
    # copied directory must fail here, not as an IndexError at predict time.
    num_records = len(record_ids)
    for name, array in (
        ("floor_labels", floor_labels),
        ("cluster_labels", cluster_labels),
        ("embeddings", embeddings),
    ):
        if array.shape[0] != num_records:
            raise ArtifactError(
                f"artifact in {directory} is inconsistent: manifest lists "
                f"{num_records} records but {name} has {array.shape[0]} rows"
            )
    if graph is not None and graph.sample_ids.size != num_records:
        raise ArtifactError(
            f"artifact in {directory} is inconsistent: manifest lists "
            f"{num_records} records but the graph has {graph.sample_ids.size} "
            "sample nodes"
        )
    num_clusters = len(cluster_order)
    if centroids.shape[0] != num_clusters or similarity.shape != (
        num_clusters,
        num_clusters,
    ):
        raise ArtifactError(
            f"artifact in {directory} is inconsistent: manifest lists "
            f"{num_clusters} clusters but centroids/similarity are shaped "
            f"{centroids.shape}/{similarity.shape}"
        )

    try:
        encoder = FrozenEncoder(
            weights=weights,
            activation=manifest["activation"],
            mac_vocabulary=list(manifest["mac_vocabulary"]),
            mac_hidden=mac_hidden,
            rss_offset_db=float(manifest["rss_offset_db"]),
            attention=bool(manifest["attention"]),
        )
    except ValueError as error:
        raise ArtifactError(f"artifact in {directory} is inconsistent: {error}") from None
    if (
        centroids.shape[1] != encoder.embedding_dim
        or embeddings.shape[1] != encoder.embedding_dim
    ):
        raise ArtifactError(
            f"artifact in {directory} is inconsistent: encoder produces "
            f"{encoder.embedding_dim}-dim embeddings but centroids/embeddings "
            f"are {centroids.shape[1]}/{embeddings.shape[1]}-dim"
        )
    # Any validation failure in the reconstructed value objects (out-of-range
    # cluster labels, malformed config dicts, ...) is an artifact problem and
    # must surface as ArtifactError so the registry's refit fallback engages.
    try:
        indexing = IndexingResult(
            cluster_order=cluster_order,
            cluster_to_floor={
                int(cluster): int(floor)
                for cluster, floor in manifest["cluster_to_floor"].items()
            },
            floor_labels=floor_labels,
            similarity=similarity,
        )
        result = FisOneResult(
            floor_labels=floor_labels,
            assignment=ClusterAssignment(
                labels=cluster_labels, num_clusters=len(cluster_order)
            ),
            indexing=indexing,
            embeddings=embeddings,
            training_history=TrainingHistory(
                epoch_losses=[float(loss) for loss in manifest["epoch_losses"]]
            ),
        )
        return FittedFisOne(
            config=config_from_dict(manifest["config"]),
            building_id=manifest.get("building_id"),
            num_floors=int(manifest["num_floors"]),
            record_ids=tuple(record_ids),
            result=result,
            encoder=encoder,
            centroids=centroids,
            graph=graph,
            # Absent in pre-refresh artifacts: default to generation 0.
            model_version=int(manifest.get("model_version", 0)),
            lineage=tuple(str(entry) for entry in manifest.get("lineage", [])),
        )
    except (ValueError, TypeError, KeyError) as error:
        raise ArtifactError(
            f"artifact in {directory} is inconsistent: {error!r}"
        ) from None
