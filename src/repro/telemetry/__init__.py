"""Fleet telemetry: latency histograms, labeled metrics, events.

The observability core the serving stack instruments into:

* :mod:`~repro.telemetry.histogram` — :class:`LatencyHistogram`: fixed
  log-spaced bins, lock-cheap observation, element-wise mergeable (the
  shard -> fleet aggregation primitive), p50/p95/p99 estimates with bounded
  relative error.
* :mod:`~repro.telemetry.metrics` — :class:`MetricsRegistry`: counter /
  gauge / histogram families with label sets (``shard``, ``building``,
  ``op``), frozen picklable :class:`MetricsSnapshot`\\ s that merge across
  processes, and a Prometheus text exposition.
* :mod:`~repro.telemetry.events` — :class:`EventRing`: a bounded structured
  stream of fleet lifecycle events (drift trips, refresh start/done,
  rollback eligibility, shard starts/exits) with monotonic timestamps and a
  drop counter.
* :mod:`~repro.telemetry.context` — :class:`Telemetry`: the
  metrics-plus-events bundle each serving layer threads through (and the
  ``Telemetry.disabled()`` zero-cost mode).
* :mod:`~repro.telemetry.exposition` — :class:`MetricsHTTPServer`: a
  stdlib ``http.server`` ``/metrics`` endpoint, so the fleet is scrapeable
  with zero dependencies.
"""

from repro.telemetry.histogram import (
    BIN_EDGES,
    BIN_HIGHEST,
    BIN_LOWEST,
    BINS_PER_DECADE,
    NUM_BINS,
    LatencyHistogram,
)
from repro.telemetry.metrics import (
    Counter,
    FamilySnapshot,
    Gauge,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
    SampleSnapshot,
)
from repro.telemetry.events import (
    EVENT_DRIFT_TRIP,
    EVENT_REFRESH_DONE,
    EVENT_REFRESH_REJECTED,
    EVENT_REFRESH_START,
    EVENT_ROLLBACK_DONE,
    EVENT_ROLLBACK_ELIGIBLE,
    EVENT_SHARD_DOWN,
    EVENT_SHARD_DRAINED,
    EVENT_SHARD_EXIT,
    EVENT_SHARD_JOINED,
    EVENT_SHARD_RECOVERED,
    EVENT_SHARD_START,
    EventRing,
    FleetEvent,
    merge_events,
    summarize_events,
)
from repro.telemetry.context import Telemetry
from repro.telemetry.exposition import MetricsHTTPServer

__all__ = [
    "BIN_EDGES",
    "BIN_HIGHEST",
    "BIN_LOWEST",
    "BINS_PER_DECADE",
    "NUM_BINS",
    "LatencyHistogram",
    "Counter",
    "Gauge",
    "FamilySnapshot",
    "HistogramState",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SampleSnapshot",
    "EVENT_DRIFT_TRIP",
    "EVENT_REFRESH_DONE",
    "EVENT_REFRESH_REJECTED",
    "EVENT_REFRESH_START",
    "EVENT_ROLLBACK_DONE",
    "EVENT_ROLLBACK_ELIGIBLE",
    "EVENT_SHARD_DOWN",
    "EVENT_SHARD_DRAINED",
    "EVENT_SHARD_EXIT",
    "EVENT_SHARD_JOINED",
    "EVENT_SHARD_RECOVERED",
    "EVENT_SHARD_START",
    "EventRing",
    "FleetEvent",
    "merge_events",
    "summarize_events",
    "Telemetry",
    "MetricsHTTPServer",
]
