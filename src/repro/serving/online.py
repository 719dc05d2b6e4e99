"""Online floor labeling through a fitted FIS-ONE model — no retraining.

:class:`OnlineFloorLabeler` wraps a
:class:`~repro.core.pipeline.FittedFisOne` and turns incoming
:class:`~repro.signals.record.SignalRecord`\\ s into typed
:class:`~repro.serving.results.OnlineLabel`\\ s: each record is embedded
through the frozen encoder via its observed-MAC neighbourhood and assigned
the floor of its nearest cluster centroid, with a softmax confidence score.
The whole path is deterministic and costs a few matrix products per batch —
this is what lets one fitted model absorb a stream of crowdsourced signals
instead of refitting per query.

Degenerate inputs are handled explicitly rather than by accident: an empty
batch yields an empty result, and a record sharing no MAC with the training
vocabulary gets the largest cluster's floor at confidence 0.0 — a guess the
caller can recognise, never a crash.  An attached
:class:`~repro.serving.drift.DriftMonitor` sees every produced label, which
is how the serving layer notices those guesses piling up (drift) and
triggers an incremental refresh.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import FittedFisOne
from repro.serving.drift import DriftMonitor
from repro.serving.results import OnlineLabel
from repro.signals.batch import RecordBatch
from repro.signals.record import SignalRecord
from repro.telemetry import Telemetry


class OnlineFloorLabeler:
    """Labels new records of one building with a frozen fitted model.

    Parameters
    ----------
    fitted:
        The fitted model, either fresh from :meth:`~repro.core.pipeline.FisOne.fit`
        or loaded via :func:`~repro.serving.artifacts.load_artifacts`.
    monitor:
        Optional :class:`~repro.serving.drift.DriftMonitor` that observes
        every label this labeler produces (rolling unknown-MAC and
        confidence statistics for the refresh policy).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink.  When set, each
        ``label`` call records its embed-and-assign latency into the
        ``fisone_label_seconds`` histogram (labeled by ``building`` and
        ``op``: the columnar ``batch`` path vs the ``records`` path) and
        counts labeled and blind (zero-known-MAC) records — one histogram
        observation and two counter bumps per *batch*, nothing per record.
    """

    def __init__(
        self,
        fitted: FittedFisOne,
        monitor: Optional[DriftMonitor] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.fitted = fitted
        self.monitor = monitor
        self.telemetry = telemetry
        # Metric children resolved once on first use (building_id is fixed
        # per labeler) — the hot path then touches them directly.
        self._metric_children: Optional[tuple] = None

    @property
    def building_id(self) -> Optional[str]:
        """Building the underlying model was fitted on."""
        return self.fitted.building_id

    @property
    def num_floors(self) -> int:
        """Number of floors of the fitted building."""
        return self.fitted.num_floors

    def label(
        self, records: Union[Sequence[SignalRecord], RecordBatch]
    ) -> List[OnlineLabel]:
        """Label a batch of records, preserving input order.

        Accepts either a sequence of records or a columnar
        :class:`~repro.signals.batch.RecordBatch`; the batch form takes the
        vectorised embedding fast path and produces bit-identical labels.
        An empty batch returns an empty list; records whose MACs are all
        unknown to the model are labeled with the largest cluster's floor
        at confidence 0.0 (``known_mac_fraction`` 0.0).
        """
        if isinstance(records, RecordBatch):
            return self.label_batch(records)
        if not records:
            return []
        started = time.perf_counter()
        floors, confidences, known_fractions = self.fitted.online_floors(records)
        record_ids = [record.record_id for record in records]
        labels, num_blind = self._emit(record_ids, floors, confidences, known_fractions)
        self._instrument("records", time.perf_counter() - started, len(labels), num_blind)
        return labels

    def label_batch(self, batch: RecordBatch) -> List[OnlineLabel]:
        """Label a columnar batch through the array-native fast path."""
        if len(batch) == 0:
            return []
        started = time.perf_counter()
        floors, confidences, known_fractions = self.fitted.online_floors_batch(batch)
        labels, num_blind = self._emit(batch.record_ids, floors, confidences, known_fractions)
        self._instrument("batch", time.perf_counter() - started, len(labels), num_blind)
        return labels

    def _instrument(
        self, op: str, seconds: float, num_labels: int, num_blind: int
    ) -> None:
        """Record one labeling operation into the telemetry sink, if any."""
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        children = self._metric_children
        if children is None:
            building = self.building_id or "unknown"
            metrics = telemetry.metrics
            children = (
                {
                    kind: metrics.histogram(
                        "fisone_label_seconds",
                        "Embed-and-assign latency of one online labeling call",
                        building=building,
                        op=kind,
                    )
                    for kind in ("batch", "records")
                },
                metrics.counter(
                    "fisone_labeled_records_total",
                    "Records labeled online",
                    building=building,
                ),
                metrics.counter(
                    "fisone_blind_records_total",
                    "Records labeled by guess: no MAC known to the model",
                    building=building,
                ),
            )
            self._metric_children = children
        latency_by_op, labeled_total, blind_total = children
        latency_by_op[op].observe(seconds)
        labeled_total.inc(num_labels)
        if num_blind:
            blind_total.inc(num_blind)

    def _emit(
        self, record_ids, floors, confidences, known_fractions
    ) -> Tuple[List[OnlineLabel], int]:
        """Wrap aligned result arrays into labels and feed the drift monitor.

        ``tolist()`` converts whole columns to native ints/floats in one C
        pass — per-element ``int()``/``float()`` calls would dominate large
        batches.  Returns the labels plus the blind-record count (zero
        known-MAC fraction), counted here on the native list in one C pass
        rather than per label on the instrumentation path.
        """
        known_list = known_fractions.tolist()
        confidence_list = confidences.tolist()
        labels = [
            OnlineLabel(str(record_id), floor, confidence, known)
            for record_id, floor, confidence, known in zip(
                record_ids, floors.tolist(), confidence_list, known_list
            )
        ]
        if self.monitor is not None:
            self.monitor.observe_columns(known_list, confidence_list)
        return labels, known_list.count(0.0)

    def label_one(self, record: SignalRecord) -> OnlineLabel:
        """Label a single record."""
        return self.label([record])[0]
