"""Typed request/response payloads of the serving layer.

Plain frozen dataclasses (no behaviour) shared by the online labeler, the
building registry, and the fleet server, so every layer speaks the same
vocabulary and callers get structured results instead of bare arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.signals.batch import RecordBatch
from repro.signals.record import SignalRecord


@dataclass(frozen=True)
class OnlineLabel:
    """Floor assignment of one online-labeled record.

    Attributes
    ----------
    record_id:
        Id of the labeled record.
    floor:
        Predicted floor index (0 = bottom).
    confidence:
        Softmax probability of the winning cluster centroid, in
        ``(1/num_floors, 1]``; ``0.0`` when the record shared no MAC with the
        building's training vocabulary (its floor is then the largest
        cluster's — a guess, not an inference).
    known_mac_fraction:
        Fraction of the record's readings whose MAC the fitted model knows.
    """

    record_id: str
    floor: int
    confidence: float
    known_mac_fraction: float


@dataclass(frozen=True)
class LabelRequest:
    """One client request: label a batch of records of one building.

    ``records`` is either a tuple of :class:`SignalRecord` or a columnar
    :class:`~repro.signals.batch.RecordBatch` — the latter is the
    array-native fast path (and what high-volume clients should send).
    """

    request_id: str
    building_id: str
    records: Union[Tuple[SignalRecord, ...], RecordBatch]

    def __post_init__(self) -> None:
        if not isinstance(self.records, RecordBatch):
            object.__setattr__(self, "records", tuple(self.records))
        if len(self.records) == 0:
            raise ValueError(f"request {self.request_id!r} contains no records")

    @property
    def num_records(self) -> int:
        """Number of records in this request, whatever their representation."""
        return len(self.records)


@dataclass(frozen=True)
class LabelResponse:
    """The server's answer to one :class:`LabelRequest`.

    ``latency_s`` measures submit-to-completion wall time, including any
    wait behind the building's running batch and any lazy model fit/load
    the request triggered.
    """

    request_id: str
    building_id: str
    labels: Tuple[OnlineLabel, ...]
    latency_s: float


@dataclass(frozen=True)
class ServerStats:
    """Aggregate throughput counters of one :class:`FleetServer` run.

    The latency fields summarise per-request submit-to-completion wall time
    (the same quantity :class:`LabelResponse.latency_s` reports) over every
    request the server completed; all three are ``0.0`` before the first
    completion.  They are the coarse pre-histogram view — full
    distributions live in the server's telemetry registry
    (``fleet_request_latency_seconds``).
    """

    num_requests: int
    num_records: int
    num_batches: int
    elapsed_s: float
    records_per_second: float
    latency_min_s: float = 0.0
    latency_mean_s: float = 0.0
    latency_max_s: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests coalesced per per-building batch."""
        if self.num_batches == 0:
            return 0.0
        return self.num_requests / self.num_batches
