"""Multi-building model registry with lazy fitting and LRU caching.

The paper's fleet scenario (152 Microsoft buildings plus three malls) means
one serving process must multiplex many fitted models while only a few are
hot at any moment.  :class:`BuildingRegistry` owns that multiplexing:

* buildings are *registered* with their crowdsourced dataset and anchor —
  fitting is deferred until the first request touches the building;
* fitted models are held in an LRU cache of configurable capacity, so a
  fleet larger than memory stays servable;
* with a ``store_dir``, every fit is written through to disk as a versioned
  artifact (:mod:`repro.serving.artifacts`), and evicted or never-seen
  buildings are reloaded from there instead of refit — each load maps the
  artifact's ``arrays.bin`` read-only, so registries in sibling processes
  over one store share its pages;
* ``label(building_id, records)`` is the one-call batch entry point the
  fleet server drives;
* every building's label traffic feeds a per-building
  :class:`~repro.serving.drift.DriftMonitor` and a bounded buffer of recent
  records, and ``refresh_if_drifted()`` turns both into an incremental
  warm-start refresh (:meth:`~repro.core.pipeline.FittedFisOne.refresh`)
  written through to the store with a bumped model version and lineage.

All public methods are thread-safe; fits/loads of *different* buildings run
concurrently (per-building locks), while two concurrent requests for the
same cold building trigger exactly one fit.
"""

from __future__ import annotations

import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import FisOneConfig
from repro.core.pipeline import FisOne, FittedFisOne
from repro.core.refresh import CanaryScore, RefreshReport, score_refresh_canary
from repro.serving.artifacts import (
    ARRAYS_FILENAME,
    MANIFEST_FILENAME,
    ArtifactError,
    current_version,
    has_artifacts,
    list_versions,
    load_artifacts,
    save_artifacts,
    set_current_version,
)
from repro.serving.drift import DriftMonitor, DriftSnapshot, RefreshPolicy
from repro.serving.online import OnlineFloorLabeler
from repro.serving.results import OnlineLabel
from repro.signals.batch import RecordBatch
from repro.signals.dataset import SignalDataset
from repro.signals.record import SignalRecord
from repro.telemetry import (
    EVENT_DRIFT_TRIP,
    EVENT_REFRESH_DONE,
    EVENT_REFRESH_REJECTED,
    EVENT_REFRESH_START,
    EVENT_ROLLBACK_DONE,
    EVENT_ROLLBACK_ELIGIBLE,
    Telemetry,
)

PathLike = Union[str, Path]


def validate_building_id(building_id: str) -> str:
    """Reject building ids that could escape the store directory.

    Ids become path components under ``store_dir``, and they arrive from
    untrusted server traffic — so no separators, no ``..``, no empties.

    Raises
    ------
    ValueError
        If the id is empty or contains a path separator or dot-segment.
    """
    if not building_id:
        raise ValueError("building_id must be a non-empty string")
    if (
        "/" in building_id
        or "\\" in building_id
        or ":" in building_id  # Windows drive-relative paths like "C:evil"
        or building_id in (".", "..")
    ):
        raise ValueError(
            f"building_id {building_id!r} must not contain path separators, "
            "colons, or be a dot-segment"
        )
    return building_id


class RefreshRejectedError(RuntimeError):
    """A refreshed candidate failed canary validation and was discarded.

    The serving model, the artifact store, the drift monitor, and the
    record buffer are exactly as they were before the refresh attempt.
    Carries the refresh report, the canary score, and the breach reasons so
    an operator (or a test) can see *why* the candidate was turned away;
    ``refresh(..., force=True)`` ships a candidate past the gate.
    """

    def __init__(
        self,
        building_id: str,
        report: RefreshReport,
        score: CanaryScore,
        reasons: Sequence[str],
    ) -> None:
        super().__init__(
            f"refresh of building {building_id!r} rejected by canary: "
            + "; ".join(reasons)
        )
        self.building_id = building_id
        self.report = report
        self.score = score
        self.reasons: Tuple[str, ...] = tuple(reasons)


@dataclass(frozen=True)
class _TrainingSource:
    """Everything needed to (re)fit one registered building on demand."""

    dataset: SignalDataset
    anchor_record_id: str
    labeled_floor: int
    config: Optional[FisOneConfig]


@dataclass
class RegistryStats:
    """Counters describing how the registry served its traffic."""

    hits: int = 0
    misses: int = 0
    fits: int = 0
    loads: int = 0
    evictions: int = 0
    refreshes: int = 0
    rejected_refreshes: int = 0
    rollbacks: int = 0


class BuildingRegistry:
    """Lazily fits, caches, and persists one FIS-ONE model per building.

    Parameters
    ----------
    store_dir:
        Optional artifact root; building ``b`` is stored under
        ``store_dir/b``.  When set, fits are written through and cache
        misses try disk before refitting.
    capacity:
        Maximum number of fitted models kept in memory (LRU eviction).
    config:
        Default pipeline configuration for buildings registered without
        their own.
    refresh_policy:
        When and how drifted buildings are incrementally refreshed; see
        :class:`~repro.serving.drift.RefreshPolicy` for the defaults.  The
        policy's ``canary`` gate makes :meth:`refresh` validate every
        candidate against the generation it would replace before swapping.
    keep_generations:
        When set, artifact write-throughs run in retention mode: each
        generation lands in its own ``v<model_version>`` subdirectory (the
        newest ``keep_generations`` are kept) behind an atomically swapped
        ``CURRENT`` pointer, and :meth:`rollback` can restore any retained
        generation.  ``None`` keeps the flat single-generation layout.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink shared with the
        layers above.  Model lifecycle operations (fit / load / evict /
        refresh) are counted and timed per building, labeling latency flows
        through to the per-building :class:`OnlineFloorLabeler` histograms,
        and drift trips / refreshes are emitted as structured events.
        Defaults to a fresh enabled sink so a standalone registry is
        observable out of the box.
    """

    def __init__(
        self,
        store_dir: Optional[PathLike] = None,
        capacity: int = 8,
        config: Optional[FisOneConfig] = None,
        refresh_policy: Optional[RefreshPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        keep_generations: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if keep_generations is not None and keep_generations < 1:
            raise ValueError("keep_generations must be >= 1 or None")
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.capacity = capacity
        self.config = config
        self.refresh_policy = refresh_policy or RefreshPolicy()
        self.keep_generations = keep_generations
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._stats = RegistryStats()
        self._sources: Dict[str, _TrainingSource] = {}
        self._cache: "OrderedDict[str, FittedFisOne]" = OrderedDict()
        # Per-building drift state: a rolling monitor over every label the
        # building produced, and a bounded FIFO of the distinct records seen
        # (the raw material an incremental refresh retrains on).
        self._monitors: Dict[str, DriftMonitor] = {}
        self._recent: Dict[str, "OrderedDict[str, SignalRecord]"] = {}
        # Per-building labeler reused across label() calls — its memoized
        # metric children keep the hot path to dict reads.  Entries are
        # dropped whenever the fitted model they wrap is replaced or
        # evicted, so a labeler never pins an evicted model in memory.
        self._labelers: Dict[str, OnlineFloorLabeler] = {}
        # Buildings known to have an artifact on disk — maintained so that
        # eviction decisions never need filesystem stats under the lock.
        self._persisted: set = set()
        # Buildings whose registered training data is newer than any stored
        # artifact; _materialize refits these instead of loading stale disk.
        self._dirty: set = set()
        self._lock = threading.Lock()
        self._building_locks: Dict[str, threading.Lock] = {}

    @property
    def stats(self) -> RegistryStats:
        """A *consistent* snapshot of the serving counters.

        Taken under the registry lock, so a reader concurrent with traffic
        never observes a torn multi-field state (e.g. a miss already counted
        but its fit not yet) — the snapshot is some state the registry
        actually passed through.  Returned by value: mutating it does not
        touch the live counters.
        """
        with self._lock:
            return replace(self._stats)

    # -- registration ----------------------------------------------------------

    def register(
        self,
        building_id: str,
        dataset: SignalDataset,
        anchor_record_id: Optional[str] = None,
        labeled_floor: int = 0,
        config: Optional[FisOneConfig] = None,
    ) -> None:
        """Register a building's training data for lazy fitting.

        ``anchor_record_id`` defaults to the first labeled sample on
        ``labeled_floor`` (the paper's single-label protocol).  Registering
        a building again supersedes any previous model: the cached fit is
        dropped and a stored artifact is treated as stale, so the next
        request refits from the new data (and overwrites the store).
        """
        validate_building_id(building_id)
        if anchor_record_id is None:
            anchor_record_id = dataset.pick_labeled_sample(floor=labeled_floor).record_id
        with self._lock:
            self._sources[building_id] = _TrainingSource(
                dataset=dataset,
                anchor_record_id=anchor_record_id,
                labeled_floor=labeled_floor,
                config=config,
            )
            self._cache.pop(building_id, None)
            self._labelers.pop(building_id, None)
            self._dirty.add(building_id)

    def add_fitted(self, building_id: str, fitted: FittedFisOne) -> None:
        """Insert an already-fitted model (and persist it when storing).

        Takes the building's per-building lock while writing, so it cannot
        interleave its artifact files with a concurrent lazy fit of the
        same building (artifact writes are single-writer-per-building).
        Supersede events race last-writer-wins: a ``register()`` landing
        *while* this model is being written keeps its dirty mark, so the
        next request refits from the newly registered data instead of
        serving the model inserted here.
        """
        validate_building_id(building_id)
        with self._lock:
            building_lock = self._building_locks.setdefault(
                building_id, threading.Lock()
            )
            source_before = self._sources.get(building_id)
        with building_lock:
            if self.store_dir is not None:
                save_artifacts(
                    fitted,
                    self.store_dir / building_id,
                    keep_generations=self.keep_generations,
                )
            with self._lock:
                if self.store_dir is not None:
                    self._persisted.add(building_id)
                if self._sources.get(building_id) is source_before:
                    self._dirty.discard(building_id)
                    self._insert(building_id, fitted)

    # -- lookup ----------------------------------------------------------------

    @property
    def building_ids(self) -> List[str]:
        """Every building the registry can serve (registered or stored)."""
        with self._lock:
            known = set(self._sources) | set(self._cache)
        if self.store_dir is not None and self.store_dir.is_dir():
            for child in self.store_dir.iterdir():
                if has_artifacts(child):
                    known.add(child.name)
        return sorted(known)

    @property
    def cached_building_ids(self) -> List[str]:
        """Buildings currently hot in the LRU cache, least recent first."""
        with self._lock:
            return list(self._cache)

    def __contains__(self, building_id: str) -> bool:
        try:
            validate_building_id(building_id)
        except ValueError:
            return False
        with self._lock:
            if (
                building_id in self._sources
                or building_id in self._cache
                or building_id in self._persisted
            ):
                return True
        return self.store_dir is not None and has_artifacts(
            self.store_dir / building_id
        )

    def get(self, building_id: str) -> FittedFisOne:
        """The fitted model of one building — cached, loaded, or fit now.

        Raises
        ------
        KeyError
            If the building was never registered and has no stored artifact.
        ValueError
            If the building id could escape the store directory.
        """
        validate_building_id(building_id)
        with self._lock:
            cached = self._cache_hit(building_id)
            if cached is not None:
                return cached
            known = building_id in self._sources or building_id in self._persisted
        # Reject unknown ids before allocating a per-building lock, so
        # bad-id traffic cannot grow _building_locks without bound.
        if not known and not (
            self.store_dir is not None and has_artifacts(self.store_dir / building_id)
        ):
            raise KeyError(
                f"building {building_id!r} is not registered and has no stored artifact"
            )
        with self._lock:
            building_lock = self._building_locks.setdefault(
                building_id, threading.Lock()
            )
        with building_lock:
            # Another thread may have materialised it while we waited — that
            # request is served from cache, so it counts as a hit; only the
            # request that actually materialises records the miss.
            with self._lock:
                cached = self._cache_hit(building_id)
                if cached is not None:
                    return cached
                self._stats.misses += 1
            fitted = self._materialize(building_id)
            with self._lock:
                # register() may have superseded the training data between
                # _materialize's final check and this insert; don't cache a
                # model the next request is already obliged to refit.
                if building_id not in self._dirty:
                    self._insert(building_id, fitted)
            return fitted

    def label(
        self, building_id: str, records: Union[Sequence[SignalRecord], RecordBatch]
    ) -> List[OnlineLabel]:
        """Online-label a batch of records against one building's model.

        Accepts a sequence of records or a columnar
        :class:`~repro.signals.batch.RecordBatch` (the fast path the fleet
        server drives).  Every produced label feeds the building's drift
        monitor, and every record the model has not trained on joins the
        building's bounded recent-record buffer — the material
        :meth:`refresh_if_drifted` retrains on.
        """
        fitted = self.get(building_id)
        labeler = self._labelers.get(building_id)
        if labeler is None or labeler.fitted is not fitted:
            labeler = OnlineFloorLabeler(
                fitted, monitor=self._monitor(building_id), telemetry=self.telemetry
            )
            self._labelers[building_id] = labeler
        labels = labeler.label(records)
        if isinstance(records, RecordBatch):
            # Materialise only the records that can actually end up in the
            # bounded refresh buffer: unknown to the model, and within the
            # last ``buffer_size`` of the batch (earlier ones would be
            # FIFO-evicted by the later inserts anyway) — the labeled hot
            # path itself never leaves columnar form.
            unknown = [
                index
                for index, record_id in enumerate(records.record_ids)
                if not fitted.knows_record(str(record_id))
            ]
            tail = unknown[-self.refresh_policy.buffer_size :]
            self._buffer_records(
                building_id,
                fitted,
                [records.record(index) for index in tail],
                known_checked=True,
            )
        else:
            self._buffer_records(building_id, fitted, records)
        return labels

    # -- drift & refresh -------------------------------------------------------

    def drift_snapshot(self, building_id: str) -> DriftSnapshot:
        """The building's current drift statistics, judged by the policy."""
        validate_building_id(building_id)
        return self._monitor(building_id).snapshot(self.refresh_policy.thresholds)

    def buffered_record_count(self, building_id: str) -> int:
        """Distinct recent records buffered as refresh material."""
        validate_building_id(building_id)
        with self._lock:
            return len(self._recent.get(building_id, ()))

    # -- membership handoff ----------------------------------------------------

    def warm(self, building_ids: Sequence[str]) -> int:
        """Preload buildings into the LRU cache; returns how many are now hot.

        The membership-change primitive: a shard joining a fleet (or acting
        as a replication follower) warms the buildings the ring will route
        to it *before* taking traffic, so its first requests hit the cache
        instead of paying a cold artifact load.  Buildings that are unknown
        or whose stored artifact cannot be read are skipped, not raised —
        a warm is advisory, never load-bearing for correctness.

        Thread-safe; loads of different buildings from concurrent warms
        serialize per building exactly like :meth:`get`.  Note the LRU
        bound still holds: warming more buildings than ``capacity`` churns
        the cache, so callers should warm at most a shard's partition.
        """
        warmed = 0
        for building_id in building_ids:
            try:
                self.get(building_id)
            except (KeyError, ValueError, ArtifactError):
                continue
            warmed += 1
        return warmed

    def export_building_state(
        self, building_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, dict]:
        """Portable per-building serving state for a drain handoff.

        Returns ``{building_id: {"records": (...), "hot": bool}}`` where
        ``records`` is the building's buffered refresh material (distinct
        recent :class:`~repro.signals.record.SignalRecord`\\ s the model has
        not trained on) and ``hot`` marks buildings currently in the LRU
        cache.  ``building_ids`` restricts the export (a draining shard
        exports only the buildings it owned); ``None`` exports everything
        with any state.  Buildings with neither buffered records nor a hot
        model are omitted.

        Thread-safe: the whole export is one consistent snapshot taken
        under the registry lock.  The payload pickles cleanly — it is
        shipped over the control plane to :meth:`import_building_state`
        on the new owners.
        """
        with self._lock:
            if building_ids is None:
                ids = sorted(set(self._recent) | set(self._cache))
            else:
                ids = [validate_building_id(building_id) for building_id in building_ids]
            state: Dict[str, dict] = {}
            for building_id in ids:
                records = tuple(self._recent.get(building_id, {}).values())
                hot = building_id in self._cache
                if records or hot:
                    state[building_id] = {"records": records, "hot": hot}
            return state

    def import_building_state(self, state: Dict[str, dict]) -> int:
        """Adopt a draining peer's exported state; returns records imported.

        The receiving half of a drain handoff: buildings marked ``hot`` are
        warmed into this registry's cache (the new owner serves them
        without a cold load), and buffered drift records re-enter the
        bounded per-building refresh buffers through the same
        known-record filter as live traffic — so refresh material
        accumulated on the old owner survives the membership change.

        Buildings this registry cannot materialise (no artifact, torn
        store) are skipped rather than raised: a handoff is best-effort by
        design — losing buffered records must never stop the drain.
        Thread-safe; see :meth:`export_building_state` for the payload
        shape.
        """
        imported = 0
        for building_id, entry in state.items():
            validate_building_id(building_id)
            records = tuple(entry.get("records", ()))
            if not records and not entry.get("hot"):
                continue
            try:
                fitted = self.get(building_id)
            except (KeyError, ArtifactError):
                continue
            if records:
                self._buffer_records(building_id, fitted, records)
                imported += len(records)
        return imported

    def refresh(
        self,
        building_id: str,
        records: Optional[Union[Sequence[SignalRecord], RecordBatch]] = None,
        fine_tune_epochs: Optional[int] = None,
        force: bool = False,
    ) -> RefreshReport:
        """Incrementally refresh one building's model and write it through.

        ``records`` defaults to the building's buffered recent traffic.
        With a canary gate configured (``refresh_policy.canary``, the
        default), the most recent slice of the refresh material is held back
        from training as a validation window and the refreshed candidate is
        scored against the generation it would replace — a candidate that
        re-shuffles the previous model's own labels or scores worse on the
        held-back traffic is rejected: a ``refresh-rejected`` event is
        emitted, :class:`RefreshRejectedError` is raised, and the serving
        model, store, monitor, and buffer stay untouched.  ``force=True``
        skips the gate (an operator override; :meth:`rollback` is the way
        back if the forced candidate turns out bad).

        On success the refreshed model (bumped ``model_version``, extended
        lineage) replaces the cached model and, with a store, is written
        through — into a per-version subdirectory when the registry runs
        with ``keep_generations``, overwriting the single artifact
        otherwise; the drift monitor is reset and the consumed records leave
        the buffer so the new generation is judged on its own traffic.

        Raises
        ------
        KeyError
            If the building is unknown.
        RefreshRejectedError
            If the canary gate turned the refreshed candidate away.
        ValueError
            If the model carries no training graph (saved with
            ``include_graph=False``) and therefore cannot warm-start.
        """
        validate_building_id(building_id)
        # Warm up (and existence-check) outside the building lock — get()
        # takes that lock on a cold miss and raises KeyError for unknown
        # ids before any per-building state is allocated.  The
        # authoritative parent is then resolved *inside* the lock, so two
        # concurrent refreshes serialize and the second one refreshes the
        # first's result instead of the same stale parent.
        self.get(building_id)
        if fine_tune_epochs is None:
            fine_tune_epochs = self.refresh_policy.fine_tune_epochs
        with self._lock:
            building_lock = self._building_locks.setdefault(
                building_id, threading.Lock()
            )
        with building_lock:
            with self._lock:
                source_before = self._sources.get(building_id)
                fitted = self._cache.get(building_id)
                if records is None:
                    records = list(self._recent.get(building_id, {}).values())
            if fitted is None:
                # Evicted (or superseded) between the warm-up get() and
                # taking the lock: re-materialize from store/source rather
                # than refreshing a stale pre-lock snapshot — the store may
                # already hold a concurrent refresh's result.
                fitted = self._materialize(building_id)
            self.telemetry.events.emit(
                EVENT_REFRESH_START,
                building_id=building_id,
                from_version=fitted.model_version,
                num_records=len(records),
            )
            # Hold back the most recent slice as the canary's validation
            # window — the traffic closest to what the candidate will serve.
            canary = self.refresh_policy.canary if not force else None
            holdout: List[SignalRecord] = []
            train: Union[Sequence[SignalRecord], RecordBatch] = records
            if canary is not None:
                holdout_size = canary.holdout_size(len(records))
                if holdout_size:
                    as_records = (
                        [records.record(index) for index in range(len(records))]
                        if isinstance(records, RecordBatch)
                        else list(records)
                    )
                    train = as_records[:-holdout_size]
                    holdout = as_records[-holdout_size:]
            refresh_started = time.perf_counter()
            result = fitted.refresh(train, fine_tune_epochs=fine_tune_epochs)
            refresh_seconds = time.perf_counter() - refresh_started
            if canary is not None:
                score = score_refresh_canary(
                    fitted, result.fitted, holdout, result.report.label_stability
                )
                reasons = canary.judge(score)
                if reasons:
                    self._reject_refresh(building_id, fitted, result, score, reasons)
            # Write-through is gated on the supersede check: a register()
            # landing mid-refresh means this candidate was trained on
            # superseded data and must not overwrite the store (a later
            # eviction + cold _materialize would resurrect it).  The check
            # runs before the save and again after it — a register() sneaking
            # into the save window gets the save undone.
            persisted = False
            persist_seconds: Optional[float] = None
            if self.store_dir is not None:
                with self._lock:
                    superseded = self._sources.get(building_id) is not source_before
                if not superseded:
                    persist_started = time.perf_counter()
                    save_artifacts(
                        result.fitted,
                        self.store_dir / building_id,
                        keep_generations=self.keep_generations,
                    )
                    persist_seconds = time.perf_counter() - persist_started
                    persisted = True
            with self._lock:
                self._stats.refreshes += 1
                superseded = self._sources.get(building_id) is not source_before
                if not superseded:
                    if persisted:
                        self._persisted.add(building_id)
                    self._dirty.discard(building_id)
                    self._insert(building_id, result.fitted)
                elif persisted:
                    self._persisted.discard(building_id)
                # Evict only the records this refresh consumed (trained on or
                # scored as the canary window); material buffered by
                # concurrent traffic (or deliberately withheld by a caller
                # passing an explicit wave) stays available for the next
                # refresh.
                buffer = self._recent.get(building_id)
                if buffer is not None:
                    consumed = (
                        records.record_ids
                        if isinstance(records, RecordBatch)
                        else (record.record_id for record in records)
                    )
                    for record_id in consumed:
                        buffer.pop(str(record_id), None)
            if superseded and persisted:
                # Undo the save that raced the register(): restore the
                # previous generation's pointer (retention mode) or delete
                # the overwrite (flat mode) — the registered data's refit
                # rewrites the store on the next request either way.
                self._discard_superseded_save(
                    building_id, parent_version=fitted.model_version
                )
            self._monitor(building_id).reset()
            # Compute and persist are separate ops: the op="refresh" histogram
            # measures model refresh time only, not artifact serialization.
            self._observe_model_op("refresh", building_id, refresh_seconds)
            if persist_seconds is not None:
                self._observe_model_op("persist", building_id, persist_seconds)
            self.telemetry.events.emit(
                EVENT_REFRESH_DONE,
                building_id=building_id,
                model_version=result.fitted.model_version,
                duration_s=round(refresh_seconds, 6),
            )
            # With retention the superseded generation is literally on disk;
            # without it, the lineage still identifies the version an
            # operator could rebuild from its training state.
            self.telemetry.events.emit(
                EVENT_ROLLBACK_ELIGIBLE,
                building_id=building_id,
                from_version=result.fitted.model_version,
                to_version=fitted.model_version,
                retained=self.keep_generations is not None,
            )
        return result.report

    def _reject_refresh(
        self,
        building_id: str,
        parent: FittedFisOne,
        result,
        score: CanaryScore,
        reasons: Sequence[str],
    ) -> None:
        """Record and raise a canary rejection (serving state untouched)."""
        with self._lock:
            self._stats.rejected_refreshes += 1
        self.telemetry.metrics.counter(
            "fisone_refresh_rejected_total",
            "Refresh candidates rejected by canary validation",
            building=building_id,
        ).inc()
        self.telemetry.events.emit(
            EVENT_REFRESH_REJECTED,
            building_id=building_id,
            from_version=parent.model_version,
            candidate_version=result.fitted.model_version,
            reasons="; ".join(reasons),
            label_stability=round(score.label_stability, 6),
            num_holdout=score.num_holdout,
        )
        raise RefreshRejectedError(building_id, result.report, score, reasons)

    def _discard_superseded_save(
        self, building_id: str, parent_version: int
    ) -> None:
        """Undo a refresh write-through that lost the supersede race.

        Retention mode repoints ``CURRENT`` at the parent generation (still
        on disk) and drops the candidate's subdirectory; flat mode can only
        delete the overwrite — either way the store no longer claims the
        superseded candidate as the building's current model, and the dirty
        mark set by ``register()`` makes the next request refit and rewrite.
        """
        directory = self.store_dir / building_id
        candidate_version = current_version(directory)
        if candidate_version is not None:
            if parent_version != candidate_version and parent_version in list_versions(
                directory
            ):
                set_current_version(directory, parent_version)
                shutil.rmtree(directory / f"v{candidate_version}", ignore_errors=True)
                with self._lock:
                    self._persisted.add(building_id)
        else:
            (directory / MANIFEST_FILENAME).unlink(missing_ok=True)
            (directory / ARRAYS_FILENAME).unlink(missing_ok=True)

    def refresh_if_drifted(self, building_id: str) -> Optional[RefreshReport]:
        """Refresh one building if its monitor signals drift.

        Returns the :class:`~repro.core.refresh.RefreshReport` when a
        refresh ran and passed canary validation, ``None`` when the building
        is not drifted, has fewer than ``refresh_policy.min_new_records``
        buffered records, or produced a candidate the canary gate rejected
        (the rejection is already recorded as a ``refresh-rejected`` event
        and counter; the previous generation keeps serving).
        """
        validate_building_id(building_id)
        policy = self.refresh_policy
        snapshot = self._monitor(building_id).snapshot(policy.thresholds)
        if not snapshot.drifted:
            return None
        buffered = self.buffered_record_count(building_id)
        proceeding = buffered >= policy.min_new_records
        self.telemetry.events.emit(
            EVENT_DRIFT_TRIP,
            building_id=building_id,
            reasons="; ".join(snapshot.reasons),
            buffered_records=buffered,
            refreshing=proceeding,
        )
        self.telemetry.metrics.counter(
            "fisone_drift_trips_total",
            "Drift-policy trips observed by refresh_if_drifted",
            building=building_id,
        ).inc()
        if not proceeding:
            return None
        try:
            return self.refresh(building_id)
        except RefreshRejectedError:
            return None

    # -- rollback --------------------------------------------------------------

    def retained_versions(self, building_id: str) -> List[int]:
        """Model versions retained on disk for one building (ascending);
        empty for flat stores or store-less registries."""
        validate_building_id(building_id)
        if self.store_dir is None:
            return []
        return list_versions(self.store_dir / building_id)

    def rollback(
        self, building_id: str, to_version: Optional[int] = None
    ) -> FittedFisOne:
        """Restore a retained generation as the building's serving model.

        ``to_version`` defaults to the newest retained generation below the
        one ``CURRENT`` points at — "undo the last refresh"; any retained
        version is accepted, so an operator can also pin forward again after
        inspecting.  The restored model replaces the cached one, the store's
        ``CURRENT`` pointer is swapped atomically, and the drift monitor is
        reset so the restored generation is judged on its own traffic (the
        record buffer is kept — it is material for a future, better
        refresh).  Returns the restored model.

        Requires a registry with a ``store_dir`` whose building directory is
        versioned (saved under ``keep_generations``); there is nothing to
        roll back to in a flat store.

        Raises
        ------
        ValueError
            If the registry has no store, the building has no retained
            generations, or no generation precedes the current one.
        ArtifactError
            If ``to_version`` names a generation that is not retained.
        """
        validate_building_id(building_id)
        if self.store_dir is None:
            raise ValueError(
                "rollback requires a store_dir with retained generations"
            )
        directory = self.store_dir / building_id
        with self._lock:
            building_lock = self._building_locks.setdefault(
                building_id, threading.Lock()
            )
        with building_lock:
            retained = list_versions(directory)
            if not retained:
                raise ValueError(
                    f"building {building_id!r} has no retained generations to "
                    "roll back to (store is flat or empty; save with "
                    "keep_generations to retain history)"
                )
            current = current_version(directory)
            if to_version is None:
                candidates = [
                    version
                    for version in retained
                    if current is None or version < current
                ]
                if not candidates:
                    raise ValueError(
                        f"no retained generation precedes v{current} for "
                        f"building {building_id!r}; retained: {retained}"
                    )
                to_version = max(candidates)
            started = time.perf_counter()
            fitted = load_artifacts(directory, version=to_version)
            set_current_version(directory, to_version)
            with self._lock:
                self._stats.rollbacks += 1
                self._persisted.add(building_id)
                # A register() that superseded the building keeps its claim:
                # the dirty mark survives and the next request refits — the
                # rollback then only served until that fresher data landed.
                if building_id not in self._dirty:
                    self._insert(building_id, fitted)
            self._monitor(building_id).reset()
            self._observe_model_op(
                "rollback", building_id, time.perf_counter() - started
            )
            self.telemetry.events.emit(
                EVENT_ROLLBACK_DONE,
                building_id=building_id,
                from_version=current,
                to_version=to_version,
            )
            return fitted

    def rollback_if_drifted(self, building_id: str) -> Optional[int]:
        """Roll back one building if its *current* generation signals drift.

        The operator-facing sweep primitive behind
        :meth:`~repro.serving.server.FleetServer.rollback_drifted`: when a
        shipped refresh turns out bad (its own traffic trips the drift
        thresholds) and a prior generation is retained, restore that
        generation.  Returns the restored ``model_version``, or ``None``
        when the building is not drifted or has nothing to roll back to.
        """
        validate_building_id(building_id)
        snapshot = self._monitor(building_id).snapshot(
            self.refresh_policy.thresholds
        )
        if not snapshot.drifted:
            return None
        if self.store_dir is None:
            return None
        directory = self.store_dir / building_id
        current = current_version(directory)
        retained = list_versions(directory)
        if current is None or not any(version < current for version in retained):
            return None
        return int(self.rollback(building_id).model_version)

    def _monitor(self, building_id: str) -> DriftMonitor:
        """Get-or-create the building's drift monitor."""
        with self._lock:
            monitor = self._monitors.get(building_id)
            if monitor is None:
                monitor = DriftMonitor(window=self.refresh_policy.monitor_window)
                self._monitors[building_id] = monitor
            return monitor

    def _buffer_records(
        self,
        building_id: str,
        fitted: FittedFisOne,
        records: Sequence[SignalRecord],
        known_checked: bool = False,
    ) -> None:
        """FIFO-buffer distinct records the model has not trained on.

        ``known_checked`` skips the per-record ``knows_record`` filter when
        the caller already applied it (the columnar path).
        """
        capacity = self.refresh_policy.buffer_size
        with self._lock:
            buffer = self._recent.setdefault(building_id, OrderedDict())
            for record in records:
                if not known_checked and fitted.knows_record(record.record_id):
                    continue
                buffer[record.record_id] = record
                buffer.move_to_end(record.record_id)
                while len(buffer) > capacity:
                    buffer.popitem(last=False)

    # -- internals -------------------------------------------------------------

    def _observe_model_op(
        self, op: str, building_id: str, seconds: Optional[float] = None
    ) -> None:
        """Count (and optionally time) one model lifecycle operation.

        Metric locks are leaves — this is safe to call while holding the
        registry lock, and never the reverse.
        """
        metrics = self.telemetry.metrics
        metrics.counter(
            "fisone_registry_model_ops_total",
            "Model lifecycle operations by kind "
            "(fit/load/evict/refresh/persist/rollback)",
            op=op,
            building=building_id,
        ).inc()
        if seconds is not None:
            metrics.histogram(
                "fisone_model_op_seconds",
                "Duration of model fits, artifact loads, and refreshes",
                op=op,
                building=building_id,
            ).observe(seconds)

    def _materialize(self, building_id: str) -> FittedFisOne:
        """Load the building's model from disk, or fit it from its source.

        Caller must hold the building's per-building lock.  A stored
        artifact is only used while the building is not marked dirty
        (re-registration marks it dirty so refreshed training data wins).
        If ``register()`` supersedes the training data *while* a fit is in
        flight, the finished fit is discarded and the loop refits from the
        refreshed source — a concurrent re-registration can therefore never
        be shadowed by a stale model or artifact.
        """
        while True:
            with self._lock:
                dirty = building_id in self._dirty
            if (
                not dirty
                and self.store_dir is not None
                and has_artifacts(self.store_dir / building_id)
            ):
                load_started = time.perf_counter()
                try:
                    fitted = load_artifacts(self.store_dir / building_id)
                except ArtifactError:
                    try:
                        # A mismatch from racing another process's overwrite
                        # is transient: one re-read usually lands after its
                        # final swap and spares a multi-second refit.
                        fitted = load_artifacts(self.store_dir / building_id)
                    except ArtifactError:
                        # Persistently torn or corrupt (e.g. a writer crashed
                        # mid-swap).  With a registered source the building
                        # is still servable: mark it dirty so the loop refits
                        # and overwrites the bad artifact; without one,
                        # propagate.
                        with self._lock:
                            has_source = building_id in self._sources
                            if has_source:
                                self._dirty.add(building_id)
                                self._persisted.discard(building_id)
                        if not has_source:
                            raise
                        continue
                with self._lock:
                    if building_id not in self._dirty:
                        self._stats.loads += 1
                        self._persisted.add(building_id)
                        self._observe_model_op(
                            "load", building_id, time.perf_counter() - load_started
                        )
                        return fitted
                # register() superseded the artifact while it was loading;
                # fall through to refit from the refreshed source.
                continue
            with self._lock:
                source = self._sources.get(building_id)
            if source is None:
                raise KeyError(
                    f"building {building_id!r} is not registered and has no stored artifact"
                )
            pipeline = FisOne(source.config or self.config)
            fit_started = time.perf_counter()
            fitted = pipeline.fit(
                source.dataset,
                source.anchor_record_id,
                labeled_floor=source.labeled_floor,
            )
            if self.store_dir is not None:
                save_artifacts(
                    fitted,
                    self.store_dir / building_id,
                    keep_generations=self.keep_generations,
                )
            with self._lock:
                if self._sources.get(building_id) is source:
                    self._stats.fits += 1
                    self._dirty.discard(building_id)
                    if self.store_dir is not None:
                        self._persisted.add(building_id)
                    self._observe_model_op(
                        "fit", building_id, time.perf_counter() - fit_started
                    )
                    return fitted
            # The source changed mid-fit; the dirty mark set by register()
            # is still in place, so the next iteration refits (and, when
            # storing, overwrites the now-stale artifact just written).

    def _cache_hit(self, building_id: str) -> Optional[FittedFisOne]:
        """Serve (and LRU-touch) a cached model, counting the hit.

        Caller must hold ``self._lock``.  Returns ``None`` on a cache miss.
        """
        cached = self._cache.get(building_id)
        if cached is not None:
            self._cache.move_to_end(building_id)
            self._stats.hits += 1
        return cached

    def _recoverable(self, building_id: str) -> bool:
        """Whether a cached model could be materialised again after eviction.

        Caller must hold ``self._lock``.  Pure in-memory check: every path
        that writes an artifact also records it in ``_persisted``, so
        eviction never stats the filesystem under the lock.
        """
        return building_id in self._sources or building_id in self._persisted

    def _insert(self, building_id: str, fitted: FittedFisOne) -> None:
        """Insert into the LRU cache, evicting the coldest *recoverable* entry.

        Caller must hold ``self._lock``.  A model added via
        :meth:`add_fitted` with neither a store nor a registered training
        source cannot be rebuilt, so it is pinned: the cache holds it above
        capacity rather than silently losing it.
        """
        stale_labeler = self._labelers.get(building_id)
        if stale_labeler is not None and stale_labeler.fitted is not fitted:
            self._labelers.pop(building_id, None)
        self._cache[building_id] = fitted
        self._cache.move_to_end(building_id)
        while len(self._cache) > self.capacity:
            victim = next(
                (
                    candidate
                    for candidate in self._cache
                    if candidate != building_id and self._recoverable(candidate)
                ),
                None,
            )
            if victim is None:
                break
            del self._cache[victim]
            self._labelers.pop(victim, None)
            self._stats.evictions += 1
            self._observe_model_op("evict", victim)
