"""Serving layer: model persistence, online inference, and fleet serving.

Everything the seed's batch pipeline lacked for production traffic:

* :mod:`~repro.serving.artifacts` — versioned save/load of a fitted
  pipeline (GNN weights, MAC vocabulary, embeddings, centroids, the
  cluster → floor index) to a directory of one flat array bundle
  (``arrays.bin``, :mod:`~repro.serving.bundle`) + JSON manifest; every
  load maps ``arrays.bin`` read-only, so processes serving one store share
  its pages.
* :mod:`~repro.serving.online` — :class:`OnlineFloorLabeler`: label *new*
  crowdsourced records through the frozen encoder by nearest cluster
  centroid, with confidence scores and no retraining.
* :mod:`~repro.serving.drift` — :class:`DriftMonitor` and
  :class:`RefreshPolicy`: rolling unknown-MAC/confidence statistics over a
  building's label traffic, judged against staleness thresholds to decide
  when an incremental refresh is due.
* :mod:`~repro.serving.registry` — :class:`BuildingRegistry`: one model per
  building, lazily fit or loaded, LRU-cached, write-through persisted, and
  incrementally refreshed (``refresh_if_drifted``) with a bumped model
  version + lineage in the stored manifest.
* :mod:`~repro.serving.server` — :class:`FleetServer`: a stdlib-only
  request loop that coalesces concurrent label requests per building,
  reports throughput, and sweeps the fleet for drifted buildings
  (``refresh_drifted``).
* :mod:`~repro.serving.sharded` — :class:`ShardedFleetServer`: the fleet
  consistent-hash partitioned across shard *processes*, each running a
  :class:`FleetServer` over the shared store's mapped artifacts, with bounded
  per-shard queues (:class:`ShardOverloadedError` backpressure),
  heartbeat failover, live join/drain, and fleet-wide
  stats/drift/refresh aggregation.
* :mod:`~repro.serving.transport` — the versioned length-prefixed binary
  frame protocol (zero-copy columnar label batches, pickle only for
  control ops) spoken between the dispatcher and its shards.
* :mod:`~repro.serving.netserver` — :class:`ShardServer`: the one shard
  worker (blocking frame I/O, pipelined, bounded-inflight with NACK
  backpressure), served over a socketpair in a process the fleet forks,
  or behind a TCP listener for remote shards.
* :mod:`~repro.serving.scheduler` — :class:`RefreshScheduler`: a jittered
  daemon that sweeps a registry's drifted buildings off the request path,
  with per-building cooldowns.
* :mod:`~repro.serving.autoscale` — :class:`Autoscaler`: the same daemon
  shape pointed at fleet membership — watches per-shard pressure and p99
  and grows/shrinks a live fleet via ``join_shard``/``drain_shard``
  within policy bounds.
* :mod:`~repro.serving.results` — the typed request/response dataclasses
  shared by all of the above.

Every layer threads one :class:`~repro.telemetry.Telemetry` sink (latency
histograms per building/shard/op, lifecycle events, Prometheus exposition
via ``render_prometheus()``); see :mod:`repro.telemetry`.

Typical flow::

    fitted = FisOne(config).fit(observed, anchor_id, labeled_floor=0)
    save_artifacts(fitted, "models/building-a")
    ...
    registry = BuildingRegistry(store_dir="models")
    with FleetServer(registry) as server:
        response = server.submit("building-a", new_records).result()
        ...
        reports = server.refresh_drifted()   # fit → serve → drift → refresh
"""

from repro.serving.autoscale import (
    AutoscaleDecision,
    AutoscalePolicy,
    Autoscaler,
    AutoscalerStats,
)
from repro.serving.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    current_version,
    has_artifacts,
    list_versions,
    load_artifacts,
    save_artifacts,
    set_current_version,
)
from repro.serving.drift import (
    CanaryPolicy,
    DriftMonitor,
    DriftSnapshot,
    DriftThresholds,
    RefreshPolicy,
)
from repro.serving.online import OnlineFloorLabeler
from repro.serving.registry import (
    BuildingRegistry,
    RefreshRejectedError,
    RegistryStats,
)
from repro.serving.results import LabelRequest, LabelResponse, OnlineLabel, ServerStats
from repro.serving.netserver import ShardServer, ShardSpec
from repro.serving.scheduler import RefreshScheduler
from repro.serving.server import FleetServer
from repro.serving.sharded import (
    ConsistentHashRing,
    FleetWideStats,
    ShardDownError,
    ShardPressure,
    ShardedFleetServer,
    ShardOverloadedError,
    ShardStats,
)
from repro.serving.transport import FrameError, PROTOCOL_VERSION

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "AutoscaleDecision",
    "AutoscalePolicy",
    "Autoscaler",
    "AutoscalerStats",
    "ArtifactError",
    "current_version",
    "has_artifacts",
    "list_versions",
    "load_artifacts",
    "save_artifacts",
    "set_current_version",
    "CanaryPolicy",
    "DriftMonitor",
    "DriftSnapshot",
    "DriftThresholds",
    "RefreshPolicy",
    "OnlineFloorLabeler",
    "BuildingRegistry",
    "RefreshRejectedError",
    "RefreshScheduler",
    "RegistryStats",
    "LabelRequest",
    "LabelResponse",
    "OnlineLabel",
    "ServerStats",
    "FleetServer",
    "ConsistentHashRing",
    "FleetWideStats",
    "FrameError",
    "PROTOCOL_VERSION",
    "ShardDownError",
    "ShardPressure",
    "ShardServer",
    "ShardSpec",
    "ShardedFleetServer",
    "ShardOverloadedError",
    "ShardStats",
]
