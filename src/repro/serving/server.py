"""A stdlib-only fleet server: batched, concurrent online floor labeling.

:class:`FleetServer` multiplexes label traffic for a whole fleet of
buildings over a :class:`~repro.serving.registry.BuildingRegistry`:

* clients ``submit()`` requests and get back a ``Future`` resolving to a
  typed :class:`~repro.serving.results.LabelResponse`;
* a dispatcher thread drains the request queue and *coalesces concurrent
  requests per building* — one model lookup and one vectorised embedding
  pass serve many requests at once, which is where the throughput comes
  from.  Coalescing needs no timer: a building with no batch running is
  flushed at once, and requests arriving while its batch runs pile up
  into the next one;
* per-building batches execute on a ``ThreadPoolExecutor``, so distinct
  buildings label in parallel while the registry's per-building locks keep
  cold fits single-flight;
* the server counts requests, records, and batches and reports
  records-per-second via :meth:`stats`;
* :meth:`refresh_drifted` sweeps the fleet for buildings whose drift
  monitors signal staleness and refreshes them in parallel (incremental
  warm-start retraining via the registry's refresh policy).

Only the standard library is used (``queue``, ``threading``,
``concurrent.futures``) — no web framework; transports can be layered on
top by feeding ``submit()``.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.refresh import RefreshReport, RefreshUnavailableError
from repro.serving.registry import BuildingRegistry
from repro.serving.results import LabelRequest, LabelResponse, ServerStats
from repro.signals.batch import RecordBatch
from repro.signals.record import SignalRecord
from repro.telemetry import Telemetry

#: Serving windows shorter than this report a throughput of 0.0 — a
#: perf-counter delta that small (e.g. ``stats()`` immediately after
#: ``start()``, or a start/stop pair on a coarse clock) carries no signal,
#: and dividing by it would report inf-like garbage records/s.
MIN_STATS_WINDOW_S = 1e-6


@dataclass
class _Pending:
    """One in-flight request plus its completion plumbing."""

    request: LabelRequest
    future: "Future[LabelResponse]"
    submitted_at: float = field(default_factory=time.perf_counter)


class FleetServer:
    """Batches concurrent label requests per building and executes them.

    Parameters
    ----------
    registry:
        The building registry that owns the fitted models.
    num_workers:
        Worker threads executing per-building batches.
    max_batch_size:
        Maximum number of requests coalesced into one batch, and the only
        batching knob.  A building with no batch running is flushed as soon
        as the dispatcher sees its requests, so at low load every request
        is its own batch with no added wait.  Requests that arrive while
        the building's batch runs pile up and go out together when it
        finishes; a backlog that reaches ``max_batch_size`` is flushed
        even while the previous batch still runs.  Batch size thus follows
        load, with no timer.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink.  Defaults to the
        registry's own sink, so server request/batch metrics and registry
        model-lifecycle metrics land in one registry and one event stream
        (and one :meth:`render_prometheus` page).  Per-building request
        latency (submit-to-completion, the quantity
        :class:`~repro.serving.results.LabelResponse.latency_s` reports)
        goes to the ``fleet_request_latency_seconds`` histogram; batch
        execution time to ``fleet_batch_label_seconds``; queue depth to the
        ``fleet_inflight_requests`` gauge, sampled at scrape time by
        :meth:`sync_gauges`.
    """

    def __init__(
        self,
        registry: BuildingRegistry,
        num_workers: int = 4,
        max_batch_size: int = 64,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.registry = registry
        self.num_workers = num_workers
        self.max_batch_size = max_batch_size
        self.telemetry = telemetry if telemetry is not None else registry.telemetry
        # Requests, the stop sentinel (None), and per-building completion
        # tokens (the building id, posted by a worker when a batch ends).
        self._queue: "queue.Queue[Union[_Pending, str, None]]" = queue.Queue()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        # Serialises start/stop against submit, so a request can never be
        # enqueued behind the shutdown sentinel and left unresolved.
        self._lifecycle_lock = threading.Lock()
        self._request_counter = itertools.count()
        self._stats_lock = threading.Lock()
        self._num_requests = 0
        self._num_records = 0
        self._num_batches = 0
        self._num_submitted = 0
        # Submit-to-completion latency extrema/total over completed requests,
        # all guarded by the stats lock (one torn-free snapshot for stats()).
        self._num_completed = 0
        self._latency_min = float("inf")
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._started_at: Optional[float] = None
        self._stopped_elapsed: Optional[float] = None
        self._inflight = self.telemetry.metrics.gauge(
            "fleet_inflight_requests",
            "Requests submitted but not yet completed",
        )
        # Per-building metric children, resolved once per building so the
        # batch hot path is a dict read plus direct observe/inc calls.
        self._building_metrics: Dict[str, tuple] = {}

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the dispatcher is accepting and processing requests."""
        dispatcher = self._dispatcher  # snapshot: stop() may null it mid-check
        return dispatcher is not None and dispatcher.is_alive()

    def start(self) -> "FleetServer":
        """Start the dispatcher and worker pool (idempotent)."""
        with self._lifecycle_lock:
            if self.running:
                return self
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="fleet-worker"
            )
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="fleet-dispatcher", daemon=True
            )
            now = time.perf_counter()
            with self._stats_lock:
                if self._stopped_elapsed is not None:
                    # Resume accumulated serving time, excluding the downtime.
                    self._started_at = now - self._stopped_elapsed
                elif self._started_at is None:
                    self._started_at = now
                self._stopped_elapsed = None
            self._dispatcher.start()
            return self

    def stop(self) -> None:
        """Drain the queue, finish in-flight batches, and shut down.

        Holds the lifecycle lock for the whole shutdown, so a concurrent
        ``submit()`` either lands before the sentinel (and is served) or
        observes the stopped server and raises.
        """
        with self._lifecycle_lock:
            if not self.running:
                return
            self._queue.put(None)
            self._dispatcher.join()
            self._dispatcher = None
            self._executor.shutdown(wait=True)
            self._executor = None
            with self._stats_lock:
                if self._started_at is not None:
                    self._stopped_elapsed = time.perf_counter() - self._started_at

    def __enter__(self) -> "FleetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request entry points --------------------------------------------------

    def submit(
        self,
        building_id: str,
        records: Union[Sequence[SignalRecord], RecordBatch],
        request_id: Optional[str] = None,
    ) -> "Future[LabelResponse]":
        """Enqueue one label request; returns a future of its response.

        ``records`` may be a sequence of records or a columnar
        :class:`~repro.signals.batch.RecordBatch`; batches sharing one
        vocabulary are coalesced array-native (no per-record conversion).
        """
        if request_id is None:
            request_id = f"req-{next(self._request_counter)}"
        request = LabelRequest(
            request_id=request_id,
            building_id=building_id,
            records=records if isinstance(records, RecordBatch) else tuple(records),
        )
        pending = _Pending(request=request, future=Future())
        with self._lifecycle_lock:
            if not self.running:
                raise RuntimeError("the server is not running; call start() first")
            self._queue.put(pending)
            # Plain increment under the (already held) lifecycle lock: the
            # inflight gauge itself is only written at scrape time
            # (sync_gauges), keeping every per-request metric lock off the
            # submit path.
            self._num_submitted += 1
        return pending.future

    def serve(self, requests: Iterable[LabelRequest]) -> List[LabelResponse]:
        """Submit many requests and block until every response is in.

        Responses are returned in request order.  The server must be
        running (use the context manager or :meth:`start`).
        """
        futures = [
            self.submit(request.building_id, request.records, request.request_id)
            for request in requests
        ]
        return [future.result() for future in futures]

    def refresh_drifted(
        self,
        building_ids: Optional[Sequence[str]] = None,
        max_workers: int = 4,
    ) -> Dict[str, RefreshReport]:
        """Incrementally refresh every drifted building, in parallel.

        Walks ``building_ids`` (default: every building the registry can
        serve), asks the registry to
        :meth:`~repro.serving.registry.BuildingRegistry.refresh_if_drifted`
        each one, and returns a mapping of building id to
        :class:`~repro.core.refresh.RefreshReport` for the buildings that
        actually refreshed.  Buildings that are not drifted, lack enough
        buffered records, or cannot warm-start (no persisted graph) are
        skipped.  Runs on its own short-lived worker pool, so it works
        whether or not the label dispatcher is running; label traffic keeps
        flowing during a refresh — each building only swaps its model under
        its own registry lock.
        """
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if building_ids is None:
            building_ids = self.registry.building_ids
        reports: Dict[str, RefreshReport] = {}
        if not building_ids:
            return reports

        def try_refresh(building_id: str) -> Optional[RefreshReport]:
            try:
                return self.registry.refresh_if_drifted(building_id)
            except RefreshUnavailableError:
                # Model cannot warm-start (e.g. artifact saved without its
                # graph); leave it serving as-is rather than failing the
                # whole fleet sweep.  Any other failure propagates — a
                # broken refresh pipeline must be visible, not skipped.
                return None

        with ThreadPoolExecutor(
            max_workers=min(max_workers, len(building_ids)),
            thread_name_prefix="fleet-refresh",
        ) as pool:
            futures = {
                building_id: pool.submit(try_refresh, building_id)
                for building_id in building_ids
            }
            for building_id, future in futures.items():
                report = future.result()
                if report is not None:
                    reports[building_id] = report
        return reports

    def rollback_drifted(
        self,
        building_ids: Optional[Sequence[str]] = None,
        max_workers: int = 4,
    ) -> Dict[str, int]:
        """Roll back every building whose *current* generation shows drift.

        The fleet-wide panic button for a refresh that shipped and then went
        bad: for each building whose monitor trips the drift thresholds and
        whose store retains a prior generation, restore that generation
        (:meth:`~repro.serving.registry.BuildingRegistry.rollback_if_drifted`).
        Returns a mapping of building id to the restored ``model_version``
        for the buildings that actually rolled back; healthy buildings and
        buildings with nothing retained are left untouched.  Like
        :meth:`refresh_drifted`, this runs on its own short-lived pool and
        never blocks label traffic — each building swaps under its own
        registry lock.
        """
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if building_ids is None:
            building_ids = self.registry.building_ids
        restored: Dict[str, int] = {}
        if not building_ids:
            return restored
        with ThreadPoolExecutor(
            max_workers=min(max_workers, len(building_ids)),
            thread_name_prefix="fleet-rollback",
        ) as pool:
            futures = {
                building_id: pool.submit(
                    self.registry.rollback_if_drifted, building_id
                )
                for building_id in building_ids
            }
            for building_id, future in futures.items():
                version = future.result()
                if version is not None:
                    restored[building_id] = version
        return restored

    def stats(self) -> ServerStats:
        """Aggregate throughput counters since :meth:`start`.

        All fields come from one critical section of the stats lock (which
        start/stop also take when moving the serving window), so concurrent
        submit/refresh/stop traffic can never produce a torn snapshot —
        counters from one window paired with an elapsed time from another.
        The *lifecycle* lock is deliberately not taken: stats() must never
        stall behind a stop() that is draining multi-second batches.
        """
        with self._stats_lock:
            num_requests = self._num_requests
            num_records = self._num_records
            num_batches = self._num_batches
            num_completed = self._num_completed
            latency_min = self._latency_min
            latency_sum = self._latency_sum
            latency_max = self._latency_max
            stopped_elapsed = self._stopped_elapsed
            started_at = self._started_at
        if stopped_elapsed is not None:
            elapsed = stopped_elapsed
        elif started_at is not None:
            elapsed = time.perf_counter() - started_at
        else:
            elapsed = 0.0
        return ServerStats(
            num_requests=num_requests,
            num_records=num_records,
            num_batches=num_batches,
            elapsed_s=elapsed,
            # Guarded against zero and near-zero windows: stats() right
            # after start() must report 0.0 records/s, never inf or NaN.
            records_per_second=(
                num_records / elapsed if elapsed > MIN_STATS_WINDOW_S else 0.0
            ),
            latency_min_s=latency_min if num_completed else 0.0,
            latency_mean_s=latency_sum / num_completed if num_completed else 0.0,
            latency_max_s=latency_max,
        )

    def sync_gauges(self) -> None:
        """Refresh sampled gauges (inflight depth) from the live counters.

        Gauges describing *current* state are set when someone looks — a
        scrape, a stats() call, a fleet snapshot — never on the per-request
        path, where a cross-thread metric lock would convoy the submit
        thread against the workers.
        """
        with self._stats_lock:
            completed = self._num_requests
        self._inflight.set(max(0, self._num_submitted - completed))

    def render_prometheus(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        self.sync_gauges()
        return self.telemetry.render_prometheus()

    # -- dispatcher ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Drain the queue and flush backlogs by the rule in the class docstring.

        Blocks with no timeout, then drains whatever else is queued.  After
        the stop sentinel it keeps the same rule and exits only once no
        backlog and no running batch remain, so every completion token is
        consumed and a later ``start()`` finds an empty queue.
        """
        backlog: Dict[str, List[_Pending]] = {}
        running: Dict[str, int] = {}
        stopping = False
        while not stopping or backlog or running:
            item = self._queue.get()
            while True:
                if item is None:
                    stopping = True
                elif isinstance(item, str):
                    running[item] -= 1
                    if not running[item]:
                        del running[item]
                else:
                    backlog.setdefault(item.request.building_id, []).append(item)
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            for building_id in list(backlog):
                self._flush(building_id, backlog, running)

    def _flush(
        self,
        building_id: str,
        backlog: Dict[str, List[_Pending]],
        running: Dict[str, int],
    ) -> None:
        pending = backlog[building_id]
        size = self.max_batch_size
        while len(pending) >= size or (pending and building_id not in running):
            batch, pending = pending[:size], pending[size:]
            running[building_id] = running.get(building_id, 0) + 1
            self._executor.submit(self._process_batch, building_id, batch)
        if pending:
            backlog[building_id] = pending
        else:
            del backlog[building_id]

    def _process_batch(self, building_id: str, batch: List[_Pending]) -> None:
        """Label one batch, then post the building's completion token."""
        try:
            self._label_batch(building_id, batch)
        finally:
            self._queue.put(building_id)

    def _label_batch(self, building_id: str, batch: List[_Pending]) -> None:
        """Label one coalesced per-building batch and complete its futures."""
        all_records = self._coalesce([pending.request.records for pending in batch])
        num_records = len(all_records)
        metrics = self.telemetry.metrics
        batch_started = time.perf_counter()
        try:
            labels = self.registry.label(building_id, all_records)
        except Exception as error:  # noqa: BLE001 - failures travel via futures
            # Count before completing the futures: a client that awaited its
            # response must find the batch already in stats(), never a
            # counter that lags its own observed completion.
            self._count_batch(batch, num_records)
            metrics.counter(
                "fleet_request_failures_total",
                "Requests completed with an exception",
                building=building_id,
            ).inc(len(batch))
            for pending in batch:
                # A client may have cancelled while queued; completing a
                # cancelled future raises and would strand the rest of the
                # batch, so claim each future first.
                if pending.future.set_running_or_notify_cancel():
                    pending.future.set_exception(error)
            return
        done_at = time.perf_counter()
        latencies = [done_at - pending.submitted_at for pending in batch]
        self._count_batch(batch, num_records, latencies)
        children = self._building_metrics.get(building_id)
        if children is None:
            children = (
                metrics.histogram(
                    "fleet_batch_label_seconds",
                    "Execution time of one coalesced per-building batch",
                    building=building_id,
                ),
                metrics.histogram(
                    "fleet_request_latency_seconds",
                    "Submit-to-completion latency of one label request",
                    building=building_id,
                ),
                metrics.counter(
                    "fleet_requests_total",
                    "Label requests completed",
                    building=building_id,
                ),
                metrics.counter(
                    "fleet_records_total",
                    "Records labeled through the fleet server",
                    building=building_id,
                ),
            )
            self._building_metrics[building_id] = children
        batch_hist, latency_hist, requests_total, records_total = children
        batch_hist.observe(done_at - batch_started)
        latency_hist.observe_many(latencies)
        requests_total.inc(len(batch))
        records_total.inc(num_records)
        cursor = 0
        for pending in batch:
            count = pending.request.num_records
            response = LabelResponse(
                request_id=pending.request.request_id,
                building_id=building_id,
                labels=tuple(labels[cursor : cursor + count]),
                latency_s=done_at - pending.submitted_at,
            )
            cursor += count
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_result(response)

    @staticmethod
    def _coalesce(
        payloads: List[Union[Tuple[SignalRecord, ...], RecordBatch]]
    ) -> Union[List[SignalRecord], RecordBatch]:
        """Merge per-request payloads into one registry call's worth of records.

        When every payload is a :class:`RecordBatch` interned against the
        same vocabulary, the merge is a pure array concatenation and the
        whole coalesced batch stays columnar end-to-end.  Any mix of shapes
        (or of vocabularies) falls back to a flat record list — correctness
        over speed for heterogeneous clients.
        """
        if all(isinstance(payload, RecordBatch) for payload in payloads):
            vocab = payloads[0].vocab
            if all(payload.vocab is vocab for payload in payloads):
                return RecordBatch.concat(payloads)
        flattened: List[SignalRecord] = []
        for payload in payloads:
            if isinstance(payload, RecordBatch):
                flattened.extend(payload.to_records())
            else:
                flattened.extend(payload)
        return flattened

    def _count_batch(
        self,
        batch: List[_Pending],
        num_records: int,
        latencies: Optional[List[float]] = None,
    ) -> None:
        """Record a dispatched batch in the throughput counters.

        Called for failed batches too — stats count traffic the server
        handled, not only requests that succeeded.  ``latencies`` (one per
        successfully completed request) extends the min/mean/max latency
        summary; failed batches pass none, so the summary describes the
        quantity :class:`~repro.serving.results.LabelResponse.latency_s`
        reports.
        """
        with self._stats_lock:
            self._num_requests += len(batch)
            self._num_records += num_records
            self._num_batches += 1
            if latencies:
                self._num_completed += len(latencies)
                self._latency_sum += sum(latencies)
                self._latency_min = min(self._latency_min, min(latencies))
                self._latency_max = max(self._latency_max, max(latencies))
