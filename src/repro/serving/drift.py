"""Drift detection over online label traffic, and the policy that acts on it.

A fitted model ages: access points get replaced (their MACs vanish from the
training vocabulary), transmit powers change, furniture moves.  The online
path sees this before anyone else — records start carrying MACs the model
does not know, and centroid confidences sag.  This module turns those
signals into an actionable refresh decision:

* :class:`DriftMonitor` — a thread-safe rolling window over the
  :class:`~repro.serving.results.OnlineLabel`\\ s a building produced:
  known-MAC fractions, blind (zero-known-MAC) records, and a confidence
  histogram.
* :class:`DriftThresholds` — the staleness limits a snapshot is judged
  against.
* :class:`DriftSnapshot` — the judged summary: the numbers plus ``drifted``
  and the reasons why.
* :class:`RefreshPolicy` — when and how the registry refreshes: thresholds,
  the rolling-window and record-buffer sizes, the minimum number of fresh
  records worth retraining on, and the fine-tune budget.

The :class:`~repro.serving.registry.BuildingRegistry` owns one monitor and
one bounded record buffer per building, feeds them on every ``label()``
call, and exposes ``refresh_if_drifted()``;
:meth:`~repro.serving.server.FleetServer.refresh_drifted` fans that out over
the fleet.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from repro.serving.results import OnlineLabel

#: Number of equal-width bins of the confidence histogram over [0, 1].
CONFIDENCE_HISTOGRAM_BINS = 10


@dataclass(frozen=True)
class DriftThresholds:
    """Staleness limits a :class:`DriftMonitor` window is judged against.

    Attributes
    ----------
    min_records:
        Windows smaller than this are never judged drifted — a handful of
        odd records must not trigger a retrain.
    max_unknown_mac_fraction:
        Mean unknown-MAC share (``1 - known_mac_fraction``) above which the
        vocabulary is considered stale (AP churn).
    max_blind_fraction:
        Tolerated share of records with *no* known MAC at all (those are
        labeled by guess, not inference).
    min_mean_confidence:
        Mean centroid-softmax confidence below which the embedding space is
        considered drifted (RSS shift without vocabulary churn).
    """

    min_records: int = 50
    max_unknown_mac_fraction: float = 0.20
    max_blind_fraction: float = 0.05
    min_mean_confidence: float = 0.50

    def __post_init__(self) -> None:
        if self.min_records < 1:
            raise ValueError("min_records must be >= 1")
        for name in (
            "max_unknown_mac_fraction",
            "max_blind_fraction",
            "min_mean_confidence",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class DriftSnapshot:
    """One judged summary of a monitor's rolling window.

    Attributes
    ----------
    num_records:
        Records currently in the window.
    mean_known_mac_fraction:
        Mean share of each record's readings whose MAC the model knows.
    blind_fraction:
        Share of records that knew no MAC at all.
    mean_confidence:
        Mean online-label confidence over the window.
    confidence_histogram:
        Record counts per confidence decile (``CONFIDENCE_HISTOGRAM_BINS``
        equal bins over [0, 1]).
    drifted:
        Whether the window breaches the thresholds it was judged against.
    reasons:
        Human-readable breach descriptions (empty when not drifted).
    """

    num_records: int
    mean_known_mac_fraction: float
    blind_fraction: float
    mean_confidence: float
    confidence_histogram: Tuple[int, ...]
    drifted: bool
    reasons: Tuple[str, ...]


@dataclass(frozen=True)
class CanaryPolicy:
    """Acceptance gate a refreshed model must pass before it may serve.

    The registry holds back the most recent slice of the refresh material as
    a validation window, scores the candidate against the generation it
    would replace (:func:`repro.core.refresh.score_refresh_canary`), and
    judges the score here.  Any breach rejects the refresh: the serving
    model, the store, and the drift state stay exactly as they were.

    Attributes
    ----------
    holdout_fraction:
        Share of the refresh material held back from training as the
        validation window (most recent records first — the traffic closest
        to what the candidate will actually serve).
    min_holdout:
        Below this many holdout records, nothing is held back and only the
        label-stability gate applies — scoring a candidate on a handful of
        records is noise, and starving a small refresh of training material
        hurts more than it protects.
    max_holdout:
        Upper bound on the validation window, so a huge buffer does not
        spend a quarter of itself on scoring.
    min_label_stability:
        Floor on the refresh report's ``label_stability`` — the fraction of
        the parent's own records whose labels the candidate preserves.  A
        candidate that re-shuffles the parent's floors is how a degrading
        refresh looks long before ground truth exists.
    max_confidence_drop:
        Tolerated drop in mean online confidence over the holdout,
        candidate versus parent.  A collapsed embedding space scores
        near-uniform softmax confidences and trips this.
    max_accuracy_drop:
        Tolerated accuracy drop over holdout records carrying ground-truth
        floors (skipped when the window has none, the common online case).
    """

    holdout_fraction: float = 0.25
    min_holdout: int = 8
    max_holdout: int = 256
    min_label_stability: float = 0.85
    max_confidence_drop: float = 0.15
    max_accuracy_drop: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ValueError(
                f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}"
            )
        if self.min_holdout < 1:
            raise ValueError("min_holdout must be >= 1")
        if self.max_holdout < self.min_holdout:
            raise ValueError("max_holdout must be >= min_holdout")
        if not (0.0 <= self.min_label_stability <= 1.0):
            raise ValueError("min_label_stability must lie in [0, 1]")
        for name in ("max_confidence_drop", "max_accuracy_drop"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def holdout_size(self, num_records: int) -> int:
        """Validation-window size for ``num_records`` of refresh material.

        0 when the fractional window would fall below ``min_holdout`` —
        the holdout must never eat the whole training set.
        """
        size = min(int(num_records * self.holdout_fraction), self.max_holdout)
        return size if size >= self.min_holdout else 0

    def judge(self, score) -> Tuple[str, ...]:
        """Breach descriptions for a :class:`~repro.core.refresh.CanaryScore`
        (empty tuple means the candidate may serve)."""
        reasons = []
        if score.label_stability < self.min_label_stability:
            reasons.append(
                f"label stability {score.label_stability:.3f} < "
                f"{self.min_label_stability:.3f}"
            )
        if score.num_holdout >= self.min_holdout:
            confidence_drop = (
                score.parent_mean_confidence - score.candidate_mean_confidence
            )
            if confidence_drop > self.max_confidence_drop:
                reasons.append(
                    f"holdout mean confidence dropped {confidence_drop:.3f} "
                    f"({score.parent_mean_confidence:.3f} -> "
                    f"{score.candidate_mean_confidence:.3f}) > "
                    f"{self.max_confidence_drop:.3f}"
                )
            if (
                score.parent_accuracy is not None
                and score.candidate_accuracy is not None
            ):
                accuracy_drop = score.parent_accuracy - score.candidate_accuracy
                if accuracy_drop > self.max_accuracy_drop:
                    reasons.append(
                        f"holdout accuracy dropped {accuracy_drop:.3f} "
                        f"({score.parent_accuracy:.3f} -> "
                        f"{score.candidate_accuracy:.3f}) > "
                        f"{self.max_accuracy_drop:.3f}"
                    )
        return tuple(reasons)


@dataclass(frozen=True)
class RefreshPolicy:
    """When and how a registry refreshes a drifted building's model.

    Attributes
    ----------
    thresholds:
        Drift limits per building.
    monitor_window:
        Rolling-window length of each building's :class:`DriftMonitor`.
    buffer_size:
        Most recent distinct online records retained per building as the
        refresh training material (FIFO beyond this).
    min_new_records:
        A drifted building is only refreshed once at least this many
        buffered records exist — retraining on a trickle is wasted work.
    fine_tune_epochs:
        Warm-start epochs passed to
        :meth:`~repro.core.pipeline.FittedFisOne.refresh`; ``None`` uses
        the pipeline's default short budget.
    canary:
        Acceptance gate a refreshed model must pass before it replaces the
        serving generation (:class:`CanaryPolicy`); ``None`` ships every
        refresh unvalidated (the pre-canary behaviour).
    """

    thresholds: DriftThresholds = field(default_factory=DriftThresholds)
    monitor_window: int = 512
    buffer_size: int = 1024
    min_new_records: int = 32
    fine_tune_epochs: Optional[int] = None
    canary: Optional[CanaryPolicy] = field(default_factory=CanaryPolicy)

    def __post_init__(self) -> None:
        if self.monitor_window < 1:
            raise ValueError("monitor_window must be >= 1")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.min_new_records < 1:
            raise ValueError("min_new_records must be >= 1")
        if self.fine_tune_epochs is not None and self.fine_tune_epochs < 1:
            raise ValueError("fine_tune_epochs must be >= 1 or None")


class DriftMonitor:
    """Thread-safe rolling drift statistics over one building's labels.

    Parameters
    ----------
    window:
        Number of most recent labels retained; older ones age out.
    """

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._known: Deque[float] = deque(maxlen=window)
        self._confidence: Deque[float] = deque(maxlen=window)
        self._num_observed = 0
        self._lock = threading.Lock()

    @property
    def num_observed(self) -> int:
        """Total labels ever observed (not capped by the window)."""
        with self._lock:
            return self._num_observed

    def __len__(self) -> int:
        with self._lock:
            return len(self._known)

    def observe(self, labels: Sequence[OnlineLabel]) -> None:
        """Fold a batch of online labels into the rolling window."""
        self.observe_columns(
            [float(label.known_mac_fraction) for label in labels],
            [float(label.confidence) for label in labels],
        )

    def observe_columns(
        self, known_fractions: Sequence[float], confidences: Sequence[float]
    ) -> None:
        """Fold aligned known-MAC fractions and confidences into the window.

        The labeler's hot path: it already holds both columns as native
        float lists, so the deques extend from them in C under one lock.
        """
        if not known_fractions:
            return
        with self._lock:
            self._known.extend(known_fractions)
            self._confidence.extend(confidences)
            self._num_observed += len(known_fractions)

    def reset(self) -> None:
        """Clear the window — called after a refresh, so the refreshed
        model is judged on its own traffic, not its predecessor's."""
        with self._lock:
            self._known.clear()
            self._confidence.clear()

    def snapshot(
        self, thresholds: Optional[DriftThresholds] = None
    ) -> DriftSnapshot:
        """Summarise and judge the current window.

        An empty or sub-``min_records`` window is reported with its numbers
        (zeros when empty) but never judged drifted.
        """
        thresholds = thresholds or DriftThresholds()
        with self._lock:
            known = np.asarray(self._known, dtype=np.float64)
            confidence = np.asarray(self._confidence, dtype=np.float64)
        num_records = int(known.size)
        if num_records == 0:
            return DriftSnapshot(
                num_records=0,
                mean_known_mac_fraction=1.0,
                blind_fraction=0.0,
                mean_confidence=1.0,
                confidence_histogram=(0,) * CONFIDENCE_HISTOGRAM_BINS,
                drifted=False,
                reasons=(),
            )
        mean_known = float(known.mean())
        blind_fraction = float(np.mean(known == 0.0))
        mean_confidence = float(confidence.mean())
        histogram, _ = np.histogram(
            confidence, bins=CONFIDENCE_HISTOGRAM_BINS, range=(0.0, 1.0)
        )
        reasons = []
        if num_records >= thresholds.min_records:
            unknown = 1.0 - mean_known
            if unknown > thresholds.max_unknown_mac_fraction:
                reasons.append(
                    f"unknown-MAC fraction {unknown:.3f} > "
                    f"{thresholds.max_unknown_mac_fraction:.3f}"
                )
            if blind_fraction > thresholds.max_blind_fraction:
                reasons.append(
                    f"blind-record fraction {blind_fraction:.3f} > "
                    f"{thresholds.max_blind_fraction:.3f}"
                )
            if mean_confidence < thresholds.min_mean_confidence:
                reasons.append(
                    f"mean confidence {mean_confidence:.3f} < "
                    f"{thresholds.min_mean_confidence:.3f}"
                )
        return DriftSnapshot(
            num_records=num_records,
            mean_known_mac_fraction=mean_known,
            blind_fraction=blind_fraction,
            mean_confidence=mean_confidence,
            confidence_histogram=tuple(int(count) for count in histogram),
            drifted=bool(reasons),
            reasons=tuple(reasons),
        )

    def is_drifted(self, thresholds: Optional[DriftThresholds] = None) -> bool:
        """Whether the current window breaches ``thresholds``."""
        return self.snapshot(thresholds).drifted
