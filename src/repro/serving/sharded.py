"""Sharded multi-process fleet serving: one store, N worker processes.

:class:`~repro.serving.server.FleetServer` coalesces and labels concurrently,
but it is one Python process: the interpreter lock caps its Python-side work
at one core, and its registry's LRU cache must hold the *whole* fleet's hot
set.  :class:`ShardedFleetServer` scales past both limits by partitioning the
fleet across worker processes:

* buildings map to shards by **consistent hashing**
  (:class:`ConsistentHashRing`, blake2b-based and stable across processes
  and runs; changing the worker count remaps only ``~1/N`` of the fleet);
* each worker process runs the ordinary in-process
  :class:`~repro.serving.server.FleetServer` over its own
  :class:`~repro.serving.registry.BuildingRegistry` on the shared artifact
  store, loading models **zero-copy** via
  :func:`~repro.serving.artifacts.load_artifacts` ``mmap=True`` — sibling
  workers mapping one store share physical pages instead of each copying
  every array;
* the dispatcher routes each :class:`LabelRequest` to the owning shard as
  one frame of the binary protocol of :mod:`~repro.serving.transport`
  (columnar payloads travel as compact :class:`_WireBatch` columns and are
  re-interned against a shard-wide vocabulary on arrival, so worker-side
  encoder translation caches stay warm);
* per-shard request queues are **bounded**: once ``max_inflight`` label
  requests are outstanding on a shard, further submits fail fast with
  :class:`ShardOverloadedError` carrying a ``retry_after_s`` hint (derived
  from the shard's recent latency) instead of growing an unbounded backlog;
* ``stats()``, ``drift_snapshot()`` and ``refresh_drifted()`` aggregate
  fleet-wide across the shards.

Every shard is a :class:`~repro.serving.netserver.ShardServer`.  By default
the fleet forks them itself and talks to each over a
``socket.socketpair()``; with ``shard_addresses=[...]`` it instead connects
to shard servers it does not own, possibly on other machines.  Either way
shards are heartbeat-monitored: a shard that misses
``heartbeat_miss_threshold`` consecutive pings (or drops its connection) is
removed from the ring, which remaps only ``~1/N`` of the fleet onto the
survivors — they lazily reload those buildings from the shared artifact
store, so serving continues through a shard loss.  Shards join and drain
live (:meth:`ShardedFleetServer.join_shard` /
:meth:`ShardedFleetServer.drain_shard`).

The single-process server remains the engine — this module only adds the
process fan-out, routing, and aggregation around it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import pickle
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import FisOneConfig
from repro.core.refresh import RefreshReport
from repro.serving.artifacts import has_artifacts
from repro.serving.drift import DriftSnapshot, RefreshPolicy
from repro.serving.netserver import ShardSpec, serve_local_shard
from repro.serving.registry import RegistryStats, validate_building_id
from repro.serving.results import LabelRequest, LabelResponse, ServerStats
from repro.serving.server import MIN_STATS_WINDOW_S
from repro.serving.shared_store import SharedArrayStore
from repro.serving.transport import (
    HEADER_SIZE,
    OP_CONTROL,
    OP_ERR,
    OP_LABEL_BATCH,
    OP_LABEL_PICKLE,
    OP_NACK,
    OP_OK_LABELS,
    OP_OK_PICKLE,
    OP_PING,
    OP_PONG,
    FrameError,
    _WireBatch,
    decode_labels,
    decode_nack,
    decode_pong,
    encode_control,
    encode_frame,
    encode_label_batch,
    recv_frame,
)
from repro.signals.batch import RecordBatch
from repro.signals.record import SignalRecord
from repro.telemetry import (
    EVENT_SHARD_DOWN,
    EVENT_SHARD_DRAINED,
    EVENT_SHARD_EXIT,
    EVENT_SHARD_JOINED,
    EVENT_SHARD_RECOVERED,
    FleetEvent,
    LatencyHistogram,
    MetricsSnapshot,
    Telemetry,
    merge_events,
)

__all__ = [
    "ConsistentHashRing",
    "FleetWideStats",
    "ShardDownError",
    "ShardOverloadedError",
    "ShardPressure",
    "ShardStats",
    "ShardedFleetServer",
    "stable_hash64",
    # Relocated to repro.serving.transport (the frame codec's columns);
    # re-exported here for existing importers.
    "_WireBatch",
]

PathLike = Union[str, Path]

#: Fallback retry hint before a shard has completed any request.
DEFAULT_RETRY_AFTER_S = 0.05

#: Virtual nodes per shard on the consistent-hash ring.  More replicas mean
#: a more even key split at the cost of a larger (still tiny) ring.
RING_REPLICAS = 64


def stable_hash64(key: str) -> int:
    """A 64-bit hash of ``key`` that is stable across processes and runs.

    Python's builtin ``hash`` is salted per process, so it cannot place
    buildings consistently between a dispatcher and its workers (or between
    two runs of a benchmark); blake2b is unsalted, fast, and well mixed.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


#: A ring entry: a worker index (shards the fleet spawned) or an opaque
#: address string like ``"host:port"`` (connect-only shards).
RingEntry = Union[int, str]


def _parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Normalise one shard address to a ``(host, port)`` pair."""
    if isinstance(address, (tuple, list)):
        if len(address) != 2:
            raise ValueError(f"address pair must be (host, port), got {address!r}")
        host, port = address
    else:
        host, _, port = str(address).rpartition(":")
        if not host:
            raise ValueError(f"address {address!r} is not 'host:port'")
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ValueError(f"address {address!r} has a non-integer port") from None
    if not 0 < port < 65536:
        raise ValueError(f"address {address!r} has an out-of-range port")
    return str(host), port


class ConsistentHashRing:
    """Classic consistent hashing: keys map to the next shard point clockwise.

    Each shard owns :data:`RING_REPLICAS` pseudo-random points on a 64-bit
    ring; a key belongs to the shard owning the first point at or after the
    key's own hash.  Adding or removing one shard therefore remaps only the
    arcs adjacent to that shard's points (``~1/num_shards`` of all keys),
    which is what lets a fleet resize workers — or fail one over — without
    re-homing and re-warming every building.

    Entries are worker indices (the classic form; constructing with an
    ``int`` is shorthand for ``range(n)`` and places points identically) or
    address strings for shards known only by where they listen.  The ring
    is immutable; :meth:`without` / :meth:`with_entry` build the resized
    ring a failover or recovery swaps in.
    """

    def __init__(
        self,
        shards: Union[int, Sequence[RingEntry]],
        replicas: int = RING_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if isinstance(shards, int):
            if shards < 1:
                raise ValueError("num_shards must be >= 1")
            entries: List[RingEntry] = list(range(shards))
        else:
            entries = list(shards)
            if not entries:
                raise ValueError("the ring needs at least one shard entry")
            if len(set(entries)) != len(entries):
                raise ValueError("shard entries must be unique")
        self.entries: Tuple[RingEntry, ...] = tuple(entries)
        self.num_shards = len(entries)
        self.replicas = replicas
        points = sorted(
            (
                (stable_hash64(f"shard-{entry}-replica-{replica}"), entry)
                for entry in entries
                for replica in range(replicas)
            ),
            key=lambda point: point[0],
        )
        self._hashes = [point for point, _ in points]
        self._owners = [entry for _, entry in points]

    def shard_for(self, key: str) -> RingEntry:
        """The shard entry owning ``key``."""
        index = bisect.bisect_right(self._hashes, stable_hash64(key))
        return self._owners[index % len(self._owners)]

    def shards_for(self, key: str, count: int = 1) -> Tuple[RingEntry, ...]:
        """The first ``count`` distinct entries clockwise from ``key``.

        ``shards_for(key, 1) == (shard_for(key),)``; with ``count=2`` the
        second entry is the key's **follower** replica.  The follower is
        chosen by ring order, which gives replication its failover
        guarantee for free: removing the primary deletes only the
        primary's points, so the next distinct owner clockwise — exactly
        this follower — becomes the key's new primary.  A replicated
        fleet that keeps followers warm therefore promotes without a cold
        load.

        ``count`` is clamped to the number of distinct entries on the
        ring.

        Raises
        ------
        ValueError
            If ``count`` is not positive.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        count = min(count, self.num_shards)
        start = bisect.bisect_right(self._hashes, stable_hash64(key))
        total = len(self._owners)
        owners: List[RingEntry] = []
        for offset in range(total):
            owner = self._owners[(start + offset) % total]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == count:
                    break
        return tuple(owners)

    def without(self, entry: RingEntry) -> "ConsistentHashRing":
        """The ring with ``entry`` removed (failover)."""
        if entry not in self.entries:
            raise ValueError(f"entry {entry!r} is not on the ring")
        remaining = [other for other in self.entries if other != entry]
        if not remaining:
            raise ValueError("cannot remove the last shard entry")
        return ConsistentHashRing(remaining, replicas=self.replicas)

    def with_entry(self, entry: RingEntry) -> "ConsistentHashRing":
        """The ring with ``entry`` added back (recovery)."""
        if entry in self.entries:
            return self
        return ConsistentHashRing(
            list(self.entries) + [entry], replicas=self.replicas
        )


class ShardOverloadedError(RuntimeError):
    """A shard's bounded in-flight window is full; retry after a backoff.

    Rejecting at submit time (rather than queueing without bound) is the
    backpressure contract: the caller learns *immediately* that the shard is
    saturated and gets ``retry_after_s`` — an estimate from the shard's
    recent request latency — to pace its retry.  :meth:`ShardedFleetServer.serve`
    implements exactly that retry loop for closed-loop callers.
    """

    def __init__(self, shard: int, max_inflight: int, retry_after_s: float) -> None:
        super().__init__(
            f"shard {shard} has {max_inflight} label requests in flight; "
            f"retry in {retry_after_s:.3f}s"
        )
        self.shard = shard
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s


class ShardDownError(RuntimeError):
    """The shard owning a request is gone (process exit, broken connection,
    or missed heartbeats).

    Subclasses :class:`RuntimeError` for compatibility with callers that
    catch an untyped error.  It is *retryable*: once the heartbeat monitor
    (or the connection reader) removes the shard from the ring,
    resubmitting routes the request to a surviving shard —
    :meth:`ShardedFleetServer.serve` does exactly that.
    """


@dataclass
class _Pending:
    """One outstanding command on a shard, dispatcher side."""

    kind: str  # "label" or "control"
    future: Future
    building_id: Optional[str] = None
    request_id: Optional[str] = None
    submitted_at: float = field(default_factory=time.perf_counter)


@dataclass(frozen=True)
class ShardStats:
    """One worker's serving counters, as reported over its connection."""

    shard: int
    server: ServerStats
    registry: RegistryStats


@dataclass(frozen=True)
class FleetWideStats:
    """Aggregate of every shard's counters plus dispatcher-side rejections.

    ``elapsed_s`` and ``records_per_second`` are measured over the
    *dispatcher's* serving window — per-shard windows overlap, so summing
    their rates would double-count time.
    """

    shards: Tuple[ShardStats, ...]
    num_requests: int
    num_records: int
    num_batches: int
    num_rejected: int
    elapsed_s: float
    records_per_second: float


@dataclass(frozen=True)
class ShardPressure:
    """One live shard's instantaneous load, as the autoscaler reads it.

    ``utilization`` is the fraction of the shard's bounded inflight window
    in use (``inflight / max_inflight``), the backpressure signal; ``p99_s``
    is the parent-observed submit-to-completion p99, or ``None`` before the
    shard has completed any request.
    """

    entry: RingEntry
    index: int
    inflight: int
    max_inflight: int
    utilization: float
    p99_s: Optional[float]


class _ShardHandle:
    """Dispatcher side of one shard: a framed connection and its window.

    The connection is the dispatcher's end of a socketpair to a worker
    process the fleet forked (``process`` set) or a TCP connection to a
    shard server it does not own (``address`` set, which reconnects
    re-dial).  The handle owns the pending map, the bounded inflight
    window, and the latency estimators behind ``retry_after_s``.

    Label payloads go out as binary ``OP_LABEL_BATCH`` frames (or pickled
    ``OP_LABEL_PICKLE`` frames for tuple-of-record requests); control ops
    ride pickled ``OP_CONTROL`` frames, and ``"ping"`` maps to the tiny
    ``OP_PING`` heartbeat.  A server-side ``OP_NACK`` completes the pending
    future with :class:`ShardOverloadedError`, so saturation at the far end
    surfaces exactly like saturation of the local window.  When the
    connection drops, pending futures fail and ``on_connection_lost`` fires
    once — the dispatcher uses it to resize the ring.
    """

    def __init__(
        self,
        index: int,
        sock: socket.socket,
        max_inflight: int,
        telemetry: Optional[Telemetry] = None,
        *,
        address: Optional[Tuple[str, int]] = None,
        process=None,
        on_connection_lost=None,
    ) -> None:
        self.index = index
        #: This shard's identity on the consistent-hash ring: the worker
        #: index for owned shards, ``"host:port"`` for connect-only ones.
        self.entry: RingEntry = index if address is None else "%s:%d" % address
        self.sock = sock
        #: Where a connect-only shard listens; ``None`` for owned workers.
        self.address = address
        #: The worker process of an owned shard; ``None`` for remote ones.
        self.process = process
        self.max_inflight = max_inflight
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.pending: Dict[int, _Pending] = {}
        self.inflight = 0
        self.dead = False
        #: Set by the server before an intentional teardown, so the reader
        #: observing the closed connection does not trigger failover.
        self.closed = False
        self.missed_heartbeats = 0
        self.on_connection_lost = on_connection_lost
        self._lost_reported = False
        self.latency_ewma: Optional[float] = None
        # The full submit-to-completion distribution of this shard, parent
        # side.  Deliberately independent of the telemetry registry: the
        # backpressure hint below must work even with telemetry disabled.
        self.latency_hist = LatencyHistogram()
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        metrics = self.telemetry.metrics
        self._roundtrip_hist = metrics.histogram(
            "fleet_shard_roundtrip_seconds",
            "Parent-observed submit-to-completion time per shard",
            shard=str(index),
        )
        self._inflight_gauge = metrics.gauge(
            "fleet_shard_inflight",
            "Label requests outstanding on one shard's bounded window",
            shard=str(index),
        )
        self._frame_encode_hist = metrics.histogram(
            "fleet_frame_encode_seconds",
            "Encode of one label batch into a binary frame",
            side="dispatcher",
            shard=str(index),
        )
        self._frame_decode_hist = metrics.histogram(
            "fleet_frame_decode_seconds",
            "Decode of one binary label response frame",
            side="dispatcher",
            shard=str(index),
        )
        self._bytes_sent = metrics.counter(
            "fleet_transport_bytes_sent_total",
            "Frame bytes written to shard connections",
            side="dispatcher",
            shard=str(index),
        )
        self._bytes_received = metrics.counter(
            "fleet_transport_bytes_received_total",
            "Frame bytes read from shard connections",
            side="dispatcher",
            shard=str(index),
        )
        self._seq = itertools.count()
        self.reader = threading.Thread(
            target=self._read_loop,
            name=f"fleet-shard-{index}-reader",
            daemon=True,
        )

    def _down_error(self) -> ShardDownError:
        if self.address is None:
            return ShardDownError(f"fleet shard {self.index} worker has exited")
        host, port = self.address
        return ShardDownError(
            f"fleet shard {self.index} connection to {host}:{port} is down"
        )

    # -- submission ------------------------------------------------------------

    def retry_after_hint(self) -> float:
        """How long a rejected caller should back off, from recent latency.

        The EWMA tracks *recent* latency; before it is primed the p95 of
        everything the shard has ever completed is the next-best estimate,
        and only a shard that has completed nothing at all falls back to the
        static default.  Caller must hold ``self.lock``.
        """
        if self.latency_ewma is not None:
            return min(1.0, max(0.005, self.latency_ewma))
        if self.latency_hist.count:
            return min(1.0, max(0.005, self.latency_hist.quantile(0.95)))
        return DEFAULT_RETRY_AFTER_S

    def check_accepting(self) -> None:
        """Raise now if a label submit would be rejected.

        Called *before* the caller pays for payload encoding, so a shard
        under backpressure sheds load without burning dispatcher CPU on
        wire batches it will refuse anyway.  Advisory: the authoritative
        check runs again under the lock in :meth:`submit_label`.
        """
        with self.lock:
            if self.dead:
                raise self._down_error()
            if self.inflight >= self.max_inflight:
                raise ShardOverloadedError(
                    self.index, self.max_inflight, self.retry_after_hint()
                )

    def submit_label(
        self, building_id: str, payload, request_id: str
    ) -> "Future[LabelResponse]":
        # Encode before taking a window slot: a payload that fails to
        # encode must leave nothing registered.
        seq = next(self._seq)
        frame = self._label_frame(seq, building_id, payload)
        with self.lock:
            if self.dead:
                raise self._down_error()
            if self.inflight >= self.max_inflight:
                raise ShardOverloadedError(
                    self.index, self.max_inflight, self.retry_after_hint()
                )
            pending = _Pending(
                kind="label",
                future=Future(),
                building_id=building_id,
                request_id=request_id,
            )
            self.pending[seq] = pending
            self.inflight += 1
            self._inflight_gauge.set(self.inflight)
        self._send(seq, frame)
        return pending.future

    def submit_control(self, op: str, *args) -> Future:
        seq = next(self._seq)
        if op == "ping":
            frame = encode_frame(OP_PING, seq)
        else:
            frame = encode_frame(OP_CONTROL, seq, encode_control(op, args))
        with self.lock:
            if self.dead:
                raise self._down_error()
            pending = _Pending(kind="control", future=Future())
            self.pending[seq] = pending
        self._send(seq, frame)
        return pending.future

    def _label_frame(self, seq: int, building_id: str, payload) -> bytes:
        if isinstance(payload, _WireBatch):
            encode_started = time.perf_counter()
            frame = encode_frame(
                OP_LABEL_BATCH, seq, encode_label_batch(building_id, payload)
            )
            self._frame_encode_hist.observe(time.perf_counter() - encode_started)
            return frame
        return encode_frame(
            OP_LABEL_PICKLE,
            seq,
            pickle.dumps((building_id, payload), protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _send(self, seq: int, frame: bytes) -> None:
        """Write one request frame; a broken connection withdraws it.

        Writes take their own lock, never ``self.lock``: the reader must
        keep draining responses while a sender waits on a full socket.
        """
        try:
            with self.send_lock:
                self.sock.sendall(frame)
        except OSError as error:
            with self.lock:
                entry = self.pending.pop(seq, None)
                if entry is not None and entry.kind == "label":
                    self.inflight -= 1
                    self._inflight_gauge.set(self.inflight)
                self.dead = True
            raise ShardDownError(
                f"fleet shard {self.index} connection is broken: {error}"
            ) from None
        self._bytes_sent.inc(len(frame))

    # -- response bookkeeping ---------------------------------------------------

    def _pop_pending(
        self, seq: int, count_latency: bool = True
    ) -> Tuple[Optional[_Pending], Optional[float]]:
        """Pop one completion: window, gauge, and latency estimators.

        ``count_latency=False`` skips the estimators — a NACK comes back
        immediately and would drag the retry hint toward zero exactly when
        the shard is at its slowest.
        """
        latency = None
        with self.lock:
            entry = self.pending.pop(seq, None)
            if entry is not None and entry.kind == "label":
                self.inflight -= 1
                self._inflight_gauge.set(self.inflight)
                if count_latency:
                    latency = time.perf_counter() - entry.submitted_at
                    self.latency_ewma = (
                        latency
                        if self.latency_ewma is None
                        else 0.8 * self.latency_ewma + 0.2 * latency
                    )
                    self.latency_hist.observe(latency)
        if latency is not None:
            self._roundtrip_hist.observe(latency)
        return entry, latency

    def _read_loop(self) -> None:
        while True:
            try:
                op, seq, payload = recv_frame(self.sock)
            except (EOFError, OSError, FrameError):
                break
            self._bytes_received.inc(HEADER_SIZE + len(payload))
            if op == OP_NACK:
                entry, _ = self._pop_pending(seq, count_latency=False)
                if entry is None or not entry.future.set_running_or_notify_cancel():
                    continue
                try:
                    retry_after_s = decode_nack(payload)
                except FrameError:
                    retry_after_s = DEFAULT_RETRY_AFTER_S
                entry.future.set_exception(
                    ShardOverloadedError(self.index, self.max_inflight, retry_after_s)
                )
                continue
            entry, latency = self._pop_pending(seq)
            if entry is None:
                continue
            if not entry.future.set_running_or_notify_cancel():
                continue
            try:
                if op == OP_ERR:
                    entry.future.set_exception(pickle.loads(payload))
                elif op == OP_OK_LABELS:
                    decode_started = time.perf_counter()
                    labels = decode_labels(payload)
                    self._frame_decode_hist.observe(
                        time.perf_counter() - decode_started
                    )
                    entry.future.set_result(
                        LabelResponse(
                            request_id=entry.request_id,
                            building_id=entry.building_id,
                            labels=labels,
                            latency_s=latency,
                        )
                    )
                elif op == OP_OK_PICKLE:
                    entry.future.set_result(pickle.loads(payload))
                elif op == OP_PONG:
                    entry.future.set_result(decode_pong(payload))
                else:
                    entry.future.set_exception(
                        RuntimeError(
                            f"unexpected frame op 0x{op:02x} from shard {self.index}"
                        )
                    )
            except Exception as error:  # noqa: BLE001 - payload decode failed
                entry.future.set_exception(error)
        self._fail_pending()
        with self.lock:
            if self._lost_reported:
                return
            self._lost_reported = True
            callback = self.on_connection_lost
        if callback is not None:
            callback(self)

    def _fail_pending(self) -> None:
        with self.lock:
            self.dead = True
            entries = list(self.pending.values())
            self.pending.clear()
            self.inflight = 0
            self._inflight_gauge.set(0)
        # Emitted parent-side: a worker that died cannot report its own exit,
        # and on a clean stop this records the drain point of the shard.
        self.telemetry.events.emit(
            EVENT_SHARD_EXIT, shard=self.index, pending_failed=len(entries)
        )
        for entry in entries:
            if entry.future.set_running_or_notify_cancel():
                entry.future.set_exception(
                    ShardDownError(
                        f"fleet shard {self.index} exited with requests in flight"
                    )
                )

    # -- teardown ---------------------------------------------------------------

    def begin_release(self) -> None:
        """Start an intentional teardown (no failover callback).

        An owned worker gets a half-close: it reads EOF, answers every
        request it accepted, and exits, and the reader keeps collecting
        those answers until the worker's end closes.
        """
        self.closed = True
        if self.process is not None:
            try:
                self.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def release(self, timeout_s: float) -> None:
        """Finish an intentional teardown begun by :meth:`begin_release`."""
        started = self.reader.ident is not None
        if self.process is not None:
            # The worker closes its end once every answer is written; the
            # reader collects them up to that EOF before the socket goes.
            if started:
                self.reader.join(timeout=timeout_s)
            self.process.join(timeout=timeout_s)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
        self.abort()
        if started:
            self.reader.join(timeout=timeout_s)

    def abort(self) -> None:
        """Force the socket shut; the reader observes EOF and fails pending."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class ShardedFleetServer:
    """Serve one artifact store from N worker processes (see module docstring).

    The server is *store-backed*: every building must already have a
    persisted artifact under ``store_dir`` (fit through a write-through
    :class:`BuildingRegistry`, or :func:`~repro.serving.artifacts.save_artifacts`
    directly).  Workers lazily mmap-load the buildings routed to them.

    Parameters
    ----------
    store_dir:
        Artifact root shared by every worker.
    num_workers:
        Worker processes; the fleet is consistent-hash partitioned over them.
    config, refresh_policy:
        Forwarded to each worker's :class:`BuildingRegistry`.
    keep_generations:
        Artifact retention depth forwarded to each worker's registry: with
        it set, worker refreshes write per-version subdirectories behind a
        ``CURRENT`` pointer and :meth:`rollback_drifted` can restore prior
        generations.  All workers share one store, so the fleet (not
        individual workers) owns this setting.
    shard_capacity:
        Per-worker LRU capacity — the aggregate in-memory fleet grows as
        ``num_workers * shard_capacity``, which is the memory half of the
        sharding win.
    mmap:
        Zero-copy artifact loads in the workers (default on): each load
        maps ``arrays.bin`` once, read-only, instead of reading it.
    shared:
        Route worker artifact loads through one fleet-wide
        :class:`~repro.serving.shared_store.SharedArrayStore`: the first
        worker to load a save copies its ``arrays.bin`` bytes unchanged
        into a named shared-memory segment, and every sibling attaches the
        same physical copy — per-worker incremental memory for a hot
        building drops from one full array set to the mapping overhead.  The segment prefix is derived from
        ``store_dir``, so fleets over different stores never collide;
        ``stop()`` sweeps any segments left by crashed workers.
    max_inflight:
        Bounded per-shard label-request window; submits beyond it raise
        :class:`ShardOverloadedError` (backpressure, never unbounded queues).
    inner_workers, max_batch_size:
        Forwarded to each worker's in-process :class:`FleetServer`, which
        flushes a building's requests at once while it has no batch
        running and coalesces those arriving behind a running batch, up to
        ``max_batch_size`` — batch size follows load, with no timer.
    start_method:
        ``multiprocessing`` start method of the worker processes; default
        prefers ``fork`` (fast, no re-import) and falls back to ``spawn``
        where fork is unavailable.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink for the
        *dispatcher side* (wire-encode time, per-shard roundtrip and
        inflight, rejections, shard lifecycle events).  Each worker builds
        its own sink with a ``shard`` const label; :meth:`fleet_metrics` /
        :meth:`fleet_events` merge both sides into one fleet-wide view.
    shard_addresses:
        Connect-only mode: ``"host:port"`` strings (or ``(host, port)``
        pairs) of externally-managed shard servers.  ``num_workers`` is
        taken from the list, the ring keys shards by address, and
        :meth:`stop` disconnects without stopping the remote servers.
    heartbeat_interval_s, heartbeat_miss_threshold, heartbeat_timeout_s:
        Liveness monitoring: every interval each shard is pinged; a
        shard missing ``heartbeat_miss_threshold`` consecutive answers
        (each waited on for ``heartbeat_timeout_s``, default the interval)
        is marked down and failed over.  Connection drops short-circuit
        the wait — the reader detects those immediately.
    connect_timeout_s:
        Connect (and reconnect) timeout per connect-mode shard.
    replication:
        Placement factor: each building maps to ``replication`` distinct
        ring entries — a primary (the classic owner, which serves its
        traffic) plus warm **followers** (the next distinct entries
        clockwise, kept hot via :meth:`warm_followers`).  Ring order
        guarantees that when a primary leaves the ring its first follower
        *is* the new primary, so heartbeat-miss failover promotes a shard
        that already holds the building's model — no cold load, no refit.
    read_fanout:
        With ``replication >= 2``, a label submit rejected by the
        primary's full inflight window is retried on a live follower
        before surfacing :class:`ShardOverloadedError` — trading strict
        single-home routing for throughput under hot-building overload.
        Labels are identical wherever they are served: every replica
        loads the same versioned artifacts.
    """

    def __init__(
        self,
        store_dir: PathLike,
        num_workers: int = 2,
        config: Optional[FisOneConfig] = None,
        refresh_policy: Optional[RefreshPolicy] = None,
        shard_capacity: int = 8,
        mmap: bool = True,
        shared: bool = False,
        max_inflight: int = 64,
        inner_workers: int = 2,
        max_batch_size: int = 64,
        start_method: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        keep_generations: Optional[int] = None,
        shard_addresses: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        heartbeat_interval_s: float = 1.0,
        heartbeat_miss_threshold: int = 3,
        heartbeat_timeout_s: Optional[float] = None,
        connect_timeout_s: float = 10.0,
        replication: int = 1,
        read_fanout: bool = False,
    ) -> None:
        if shard_addresses is not None:
            shard_addresses = list(shard_addresses)
            if not shard_addresses:
                raise ValueError("shard_addresses must name at least one shard")
            num_workers = len(shard_addresses)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if shard_capacity < 1:
            raise ValueError("shard_capacity must be >= 1")
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if heartbeat_miss_threshold < 1:
            raise ValueError("heartbeat_miss_threshold must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if replication > num_workers:
            raise ValueError(
                f"replication={replication} needs at least that many shards "
                f"(got num_workers={num_workers})"
            )
        self.replication = replication
        self.read_fanout = read_fanout
        self.store_dir = Path(store_dir)
        self.num_workers = num_workers
        self.max_inflight = max_inflight
        self._addresses = (
            [_parse_address(address) for address in shard_addresses]
            if shard_addresses is not None
            else None
        )
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_miss_threshold = heartbeat_miss_threshold
        self._heartbeat_timeout_s = (
            heartbeat_timeout_s
            if heartbeat_timeout_s is not None
            else heartbeat_interval_s
        )
        self._connect_timeout_s = connect_timeout_s
        # Deterministic per-store prefix: every worker of this fleet maps a
        # building to the same segment names, while fleets over other store
        # directories (or the same one in another test) stay disjoint.
        self.shared_prefix = (
            "fisone-"
            + hashlib.blake2b(
                str(self.store_dir.resolve()).encode("utf-8"), digest_size=6
            ).hexdigest()
            if shared
            else None
        )
        self._spec = ShardSpec(
            store_dir=str(self.store_dir),
            capacity=shard_capacity,
            config=config,
            refresh_policy=refresh_policy,
            mmap=mmap,
            inner_workers=inner_workers,
            max_batch_size=max_batch_size,
            shared_prefix=self.shared_prefix,
            keep_generations=keep_generations,
            max_inflight=max_inflight,
        )
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self._ring_lock = threading.Lock()
        self._ring = ConsistentHashRing(self._full_membership())
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._encode_hist = self.telemetry.metrics.histogram(
            "fleet_wire_encode_seconds",
            "Dispatcher-side flattening of one columnar batch into wire columns",
        )
        self._failovers = self.telemetry.metrics.counter(
            "fleet_transport_failovers_total",
            "Shards removed from the ring after missed heartbeats or drops",
        )
        self._reconnects = self.telemetry.metrics.counter(
            "fleet_transport_reconnects_total",
            "Successful reconnects to previously-down shards",
        )
        self._shards: List[_ShardHandle] = []
        self._shard_by_entry: Dict[RingEntry, _ShardHandle] = {}
        # Guards _shards/_shard_by_entry against concurrent membership
        # changes (join, drain, reconnect) — every iteration over the
        # shard list goes through _live_shards() and every handle lookup
        # holds this lock.  Reentrant: drain paths look entries up while
        # already mutating membership.
        self._membership_lock = threading.RLock()
        # Worker indices of shards spawned after start() — join_shard
        # numbers them past the initial num_workers so telemetry labels
        # never collide with a live or historical shard.
        self._next_spawn_index = num_workers
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._heartbeat_stop = threading.Event()
        self._lifecycle_lock = threading.Lock()
        self._live_shards_gauge = self.telemetry.metrics.gauge(
            "fleet_live_shards",
            "Shard entries currently on the routing ring",
        )
        self._membership_joins = self.telemetry.metrics.counter(
            "fleet_membership_joins_total",
            "Shards added to the live routing ring by join_shard",
        )
        self._membership_drains = self.telemetry.metrics.counter(
            "fleet_membership_drains_total",
            "Shards removed from the live routing ring by drain_shard",
        )
        self._fanout_counter = self.telemetry.metrics.counter(
            "fleet_replica_fanout_total",
            "Label submits routed to a follower replica under primary overload",
        )
        self._request_counter = itertools.count()
        self._stats_lock = threading.Lock()
        self._num_rejected = 0
        self._started_at: Optional[float] = None
        self._stopped_elapsed: Optional[float] = None

    def _full_membership(self) -> Union[int, List[RingEntry]]:
        """Ring entries with every configured shard present."""
        if self._addresses is not None:
            return [f"{host}:{port}" for host, port in self._addresses]
        return self.num_workers

    # -- lifecycle -------------------------------------------------------------

    def _live_shards(self) -> List[_ShardHandle]:
        """A consistent snapshot of the current shard handles.

        Every iteration over fleet membership goes through this copy:
        ``self._shards`` is mutated by reconnects, :meth:`join_shard` and
        :meth:`drain_shard` on other threads, and iterating the live list
        directly races those resizes.
        """
        with self._membership_lock:
            return list(self._shards)

    def _lookup_entry(self, entry: RingEntry) -> Optional[_ShardHandle]:
        """The handle currently registered for a ring entry, if any."""
        with self._membership_lock:
            return self._shard_by_entry.get(entry)

    @property
    def num_live_shards(self) -> int:
        """Entries currently on the routing ring (the autoscaler's count)."""
        with self._ring_lock:
            return self._ring.num_shards

    @property
    def running(self) -> bool:
        """Whether worker processes are up and accepting requests."""
        shards = self._live_shards()
        return bool(shards) and not all(shard.dead for shard in shards)

    def start(self, ping_timeout_s: float = 120.0) -> "ShardedFleetServer":
        """Spawn (or connect) the shards and wait until every one answers a ping.

        All-or-nothing: ``self._shards`` is only assigned after every
        worker pinged back, and a partial startup failure tears the
        already-spawned workers down — so a failed ``start()`` can simply
        be retried instead of leaving the server half-up with leaked
        processes.
        """
        with self._lifecycle_lock:
            if self._shards:
                return self
            if self._addresses is not None:
                shards = self._connect_shards(ping_timeout_s)
            else:
                shards = self._spawn_shards(ping_timeout_s)
            with self._membership_lock:
                self._shards = shards
                self._shard_by_entry = {shard.entry: shard for shard in shards}
                self._next_spawn_index = self.num_workers
            with self._ring_lock:
                # Restore full membership: a prior run may have failed
                # shards over, and a restart gets every shard back.
                self._ring = ConsistentHashRing(self._full_membership())
                self._live_shards_gauge.set(self._ring.num_shards)
            if self.replication > 1:
                # Synchronous on purpose: the replication contract is that
                # failover promotes a *warm* follower, which only holds
                # once this first sweep has completed.
                self.warm_followers(timeout_s=ping_timeout_s)
            self._heartbeat_stop.clear()
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
            )
            self._heartbeat_thread.start()
            now = time.perf_counter()
            with self._stats_lock:
                if self._stopped_elapsed is not None:
                    self._started_at = now - self._stopped_elapsed
                else:
                    self._started_at = now
                self._stopped_elapsed = None
            return self

    def _fork_worker(self, index: int) -> _ShardHandle:
        """Fork one ShardServer worker on a socketpair; returns its handle.

        The reader thread is not started yet: callers fork every worker
        before starting any, because forking a multi-threaded process is
        where the fork/threads hazards live.
        """
        parent_end, child_end = socket.socketpair()
        process = self._context.Process(
            target=serve_local_shard,
            args=(child_end, self._spec, index),
            name=f"fleet-shard-{index}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
        return _ShardHandle(
            index,
            parent_end,
            self.max_inflight,
            self.telemetry,
            process=process,
            on_connection_lost=self._on_shard_connection_lost,
        )

    def _spawn_shards(self, ping_timeout_s: float) -> List[_ShardHandle]:
        """Fork one local ShardServer per worker and wait for their pings."""
        shards: List[_ShardHandle] = []
        try:
            for index in range(self.num_workers):
                shards.append(self._fork_worker(index))
            for shard in shards:
                shard.reader.start()
            for shard in shards:
                shard.submit_control("ping").result(timeout=ping_timeout_s)
        except BaseException:
            self._release(shards, timeout_s=5.0)
            raise
        return shards

    def _connect_shards(self, ping_timeout_s: float) -> List[_ShardHandle]:
        """Connect to externally-managed shard servers (no spawning)."""
        shards: List[_ShardHandle] = []
        try:
            for index, address in enumerate(self._addresses):
                shards.append(self._dial(index, address))
            for shard in shards:
                shard.submit_control("ping").result(timeout=ping_timeout_s)
        except BaseException:
            self._release(shards, timeout_s=5.0)
            raise
        return shards

    def _dial(self, index: int, address: Tuple[str, int]) -> _ShardHandle:
        """Connect to a shard server and start the handle's reader."""
        sock = socket.create_connection(address, timeout=self._connect_timeout_s)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        shard = _ShardHandle(
            index,
            sock,
            self.max_inflight,
            self.telemetry,
            address=address,
            on_connection_lost=self._on_shard_connection_lost,
        )
        shard.reader.start()
        return shard

    @staticmethod
    def _release(shards: Sequence[_ShardHandle], timeout_s: float) -> None:
        """Intentionally tear shards down: owned workers drain and exit.

        Every worker is half-closed before any is joined, so they drain in
        parallel; connect-only shards are merely disconnected.
        """
        for shard in shards:
            shard.begin_release()
        for shard in shards:
            shard.release(timeout_s)

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain every shard, stop owned workers, and join their processes.

        Connect-only shards are merely disconnected — the dispatcher does
        not own their lifecycle.
        """
        with self._lifecycle_lock:
            if not self._shards:
                return
            if self._heartbeat_thread is not None:
                self._heartbeat_stop.set()
                self._heartbeat_thread.join(timeout=timeout_s)
                self._heartbeat_thread = None
            self._release(self._live_shards(), timeout_s)
            with self._membership_lock:
                self._shards = []
                self._shard_by_entry = {}
            self._live_shards_gauge.set(0)
            if self.shared_prefix is not None:
                # Backstop for workers that died without their atexit hook
                # (SIGKILL, segfault): reap any segment still carrying this
                # fleet's prefix so crashed shards cannot pin physical
                # memory past the server's lifetime.
                SharedArrayStore.sweep(self.shared_prefix)
            with self._stats_lock:
                if self._started_at is not None:
                    self._stopped_elapsed = time.perf_counter() - self._started_at

    def __enter__(self) -> "ShardedFleetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- routing ---------------------------------------------------------------

    def shard_for(self, building_id: str) -> RingEntry:
        """The ring entry (worker index or address) owning ``building_id``."""
        with self._ring_lock:
            return self._ring.shard_for(building_id)

    def _route(self, building_id: str) -> _ShardHandle:
        """The live shard handle owning ``building_id``.

        A shard found dead at routing time is failed over on the spot —
        the ring resizes and the lookup repeats against the survivors —
        rather than bouncing the request off a handle the failure detector
        has not yet processed.
        """
        shards = self._live_shards()
        if not shards:
            raise RuntimeError("the server is not running; call start() first")
        for _ in range(len(shards) + 1):
            with self._ring_lock:
                entry = self._ring.shard_for(building_id)
            shard = self._lookup_entry(entry)
            if shard is None:  # stop() raced the lookup
                raise RuntimeError("the server is not running; call start() first")
            if not shard.dead:
                return shard
            if not self._mark_shard_down(shard, reason="dead at routing"):
                raise shard._down_error()
        raise ShardDownError("no live shard available")

    def _mark_shard_down(self, shard: _ShardHandle, reason: str) -> bool:
        """Remove ``shard`` from the routing ring (failover).

        Returns ``True`` once the ring no longer routes to the shard —
        whether this call removed it or a racing one already had — and
        ``False`` only when it is the last entry (nothing to fail over to).
        Removal remaps only ``~1/N`` of the fleet; survivors lazily reload
        those buildings from the shared artifact store.
        """
        with self._ring_lock:
            if shard.entry not in self._ring.entries:
                return True
            try:
                self._ring = self._ring.without(shard.entry)
            except ValueError:
                return False
            self._live_shards_gauge.set(self._ring.num_shards)
        self._failovers.inc()
        self.telemetry.events.emit(
            EVENT_SHARD_DOWN,
            shard=shard.index,
            entry=str(shard.entry),
            reason=reason,
        )
        if self.replication > 1:
            # The failed primary's buildings promoted onto their (warm)
            # followers; give those buildings fresh followers in turn.
            self._warm_followers_async()
        return True

    def _on_shard_connection_lost(self, shard: _ShardHandle) -> None:
        """Reader-thread callback: a shard's connection dropped."""
        if shard.closed:
            return  # intentional teardown, not a failure
        self._mark_shard_down(shard, reason="connection lost")

    def _heartbeat_loop(self) -> None:
        """Ping every shard each interval; fail over persistent silence.

        A shard that misses ``heartbeat_miss_threshold`` consecutive pings
        is removed from the ring and its connection aborted (failing any
        stuck in-flight requests).  In connect mode a down shard is also
        re-dialled here — answering again puts it back on the ring.
        """
        while not self._heartbeat_stop.wait(self.heartbeat_interval_s):
            for shard in self._live_shards():
                if self._heartbeat_stop.is_set():
                    return
                if shard.closed:
                    continue
                if shard.dead:
                    if self._addresses is not None:
                        self._try_reconnect(shard)
                    continue
                try:
                    shard.submit_control("ping").result(
                        timeout=self._heartbeat_timeout_s
                    )
                except Exception:  # noqa: BLE001 - any failure is a miss
                    shard.missed_heartbeats += 1
                    if shard.missed_heartbeats >= self.heartbeat_miss_threshold:
                        if self._mark_shard_down(
                            shard,
                            reason=f"missed {shard.missed_heartbeats} heartbeats",
                        ):
                            shard.abort()
                else:
                    shard.missed_heartbeats = 0

    def _try_reconnect(self, shard: _ShardHandle) -> None:
        """One reconnect attempt to a down connect-mode shard."""
        try:
            replacement = self._dial(shard.index, shard.address)
        except OSError:
            return  # still down; next tick tries again
        try:
            replacement.submit_control("ping").result(
                timeout=self._heartbeat_timeout_s
            )
        except Exception:  # noqa: BLE001 - connected but not serving yet
            self._release([replacement], timeout_s=5.0)
            return
        with self._membership_lock:
            try:
                position = self._shards.index(shard)
            except ValueError:
                self._release([replacement], timeout_s=5.0)
                return
            self._shards[position] = replacement
            self._shard_by_entry[replacement.entry] = replacement
        with self._ring_lock:
            self._ring = self._ring.with_entry(replacement.entry)
            self._live_shards_gauge.set(self._ring.num_shards)
        self._reconnects.inc()
        self.telemetry.events.emit(
            EVENT_SHARD_RECOVERED, shard=shard.index, entry=str(shard.entry)
        )
        if self.replication > 1:
            self._warm_followers_async()

    # -- live membership --------------------------------------------------------

    def join_shard(
        self,
        address: Optional[Union[str, Tuple[str, int]]] = None,
        warm: bool = True,
        timeout_s: float = 120.0,
    ) -> RingEntry:
        """Add one shard to the live fleet; returns its new ring entry.

        With ``address=None`` (owned fleets only) a fresh
        :class:`~repro.serving.netserver.ShardServer` worker is forked on a
        socketpair, like the ones :meth:`start` spawns — the autoscaler's
        grow path.  With an
        ``address`` (``"host:port"`` or a pair) the dispatcher connects to
        an externally-managed shard server instead.

        The join is **warm-before-traffic**: the buildings the grown ring
        will route to the newcomer (as primary or replication follower)
        are preloaded on it first, and only then does the entry go onto
        the ring — so the remapped ``~1/N`` of the fleet never pays a cold
        load on its first request.  Routing, heartbeats and telemetry pick
        the shard up atomically at the ring swap; labels are bit-identical
        before, during, and after (same artifacts, same models).

        Parameters
        ----------
        address:
            ``None`` to spawn a worker (requires a fleet that owns its
            shards), or the endpoint of a running shard server to adopt.
        warm:
            Preload the newcomer's buildings before routing to it
            (default).  Disable only when the caller has warmed the shard
            itself.
        timeout_s:
            Bound on the newcomer's first ping and the warm sweep.

        Raises
        ------
        RuntimeError
            If the fleet is not running, or a spawn was requested from a
            connect-only fleet.
        ValueError
            If ``address`` is malformed or already on the ring.

        Thread-safe: serialized against :meth:`drain_shard`, :meth:`start`
        and :meth:`stop` by the lifecycle lock.
        """
        with self._lifecycle_lock:
            if not self._live_shards():
                raise RuntimeError("the server is not running; call start() first")
            if address is None:
                if self._addresses is not None:
                    raise RuntimeError(
                        "this fleet connects to externally-managed shards; "
                        "join_shard needs their address"
                    )
                with self._membership_lock:
                    index = self._next_spawn_index
                    self._next_spawn_index += 1
                shard = self._fork_worker(index)
                shard.reader.start()
            else:
                host, port = _parse_address(address)
                if self._lookup_entry(f"{host}:{port}") is not None:
                    raise ValueError(f"shard {host}:{port} is already part of the fleet")
                with self._membership_lock:
                    index = self._next_spawn_index
                    self._next_spawn_index += 1
                shard = self._dial(index, (host, port))
            entry = shard.entry
            try:
                shard.submit_control("ping").result(timeout=timeout_s)
            except BaseException:
                self._release([shard], timeout_s=5.0)
                raise
            with self._ring_lock:
                candidate = self._ring.with_entry(entry)
            warmed = 0
            if warm:
                owned = [
                    building_id
                    for building_id in self.building_ids
                    if entry in candidate.shards_for(building_id, self.replication)
                ]
                if owned:
                    try:
                        warmed = shard.submit_control("warm", owned).result(
                            timeout=timeout_s
                        )
                    except Exception:  # noqa: BLE001 - warming is advisory
                        warmed = 0
            # Handle map before ring swap: the instant the ring routes to
            # the entry, _route must be able to resolve it.
            with self._membership_lock:
                self._shards.append(shard)
                self._shard_by_entry[entry] = shard
            with self._ring_lock:
                self._ring = self._ring.with_entry(entry)
                self._live_shards_gauge.set(self._ring.num_shards)
            self._membership_joins.inc()
            self.telemetry.events.emit(
                EVENT_SHARD_JOINED,
                shard=shard.index,
                entry=str(entry),
                warmed=warmed,
            )
            if self.replication > 1:
                # Follower assignments shifted with the ring; re-warm them
                # off the caller's critical path.
                self._warm_followers_async()
            return entry

    def drain_shard(
        self,
        entry: Union[RingEntry, Tuple[str, int]],
        timeout_s: float = 120.0,
    ) -> Dict[str, object]:
        """Planned removal of one shard from the live fleet.

        The drain sequence: (1) the entry leaves the routing ring, so no
        new request lands on the shard; (2) the shard's accumulated
        serving state — buffered drift records and hot registry entries —
        is exported over the control plane and imported by the buildings'
        new owners, so refresh material survives the membership change;
        (3) in-flight requests drain; (4) the shard is stopped (owned
        workers) or disconnected (external shards) and dropped from the
        handle table.

        Every step past the ring swap is **best-effort**: a shard that is
        already dead — or is SIGKILLed mid-drain — simply hands nothing
        off, and the drain still completes with serving uninterrupted
        (survivors lazily reload from the shared artifact store, exactly
        like failover).

        Parameters
        ----------
        entry:
            The ring entry to remove: a worker index, a ``"host:port"``
            string, or a ``(host, port)`` pair.
        timeout_s:
            Bound on each handoff control call and the process join.

        Returns
        -------
        dict
            ``{"entry", "handed_off_records", "handed_off_buildings"}``.

        Raises
        ------
        ValueError
            If the entry is unknown, or it is the last shard (a fleet
            cannot drain itself to zero).

        Thread-safe: serialized against :meth:`join_shard`, :meth:`start`
        and :meth:`stop` by the lifecycle lock.
        """
        if isinstance(entry, (tuple, list)):
            host, port = _parse_address(entry)
            entry = f"{host}:{port}"
        with self._lifecycle_lock:
            shard = self._lookup_entry(entry)
            if shard is None:
                raise ValueError(f"shard {entry!r} is not part of the fleet")
            # No failover once the teardown begins: the reader observing
            # the final disconnect must not re-remove the entry.
            shard.closed = True
            with self._ring_lock:
                if entry in self._ring.entries:
                    try:
                        self._ring = self._ring.without(entry)
                    except ValueError:
                        # Refused drains must leave the shard fully live,
                        # including reader-side failover on a later drop.
                        shard.closed = False
                        raise ValueError(
                            "cannot drain the last shard on the ring"
                        ) from None
                    self._live_shards_gauge.set(self._ring.num_shards)
            handed_off_records = 0
            export: Dict[str, dict] = {}
            if not shard.dead:
                try:
                    export = shard.submit_control("handoff_export", None).result(
                        timeout=timeout_s
                    )
                except Exception:  # noqa: BLE001 - died mid-drain; nothing to hand off
                    export = {}
            if export:
                with self._ring_lock:
                    ring = self._ring
                by_target: Dict[RingEntry, Dict[str, dict]] = {}
                for building_id, state in export.items():
                    target = ring.shard_for(building_id)
                    by_target.setdefault(target, {})[building_id] = state
                imports = []
                for target_entry, payload in by_target.items():
                    target = self._lookup_entry(target_entry)
                    if target is None or target is shard or target.dead:
                        continue
                    try:
                        imports.append(target.submit_control("handoff_import", payload))
                    except RuntimeError:
                        continue
                for future in imports:
                    try:
                        handed_off_records += future.result(timeout=timeout_s)
                    except Exception:  # noqa: BLE001 - target died; best-effort
                        continue
            # Let requests accepted before the ring swap finish draining.
            deadline = time.perf_counter() + min(timeout_s, 10.0)
            while time.perf_counter() < deadline:
                with shard.lock:
                    if shard.inflight == 0 or shard.dead:
                        break
                time.sleep(0.01)
            with self._membership_lock:
                if shard in self._shards:
                    self._shards.remove(shard)
                if self._shard_by_entry.get(entry) is shard:
                    del self._shard_by_entry[entry]
            self._release([shard], timeout_s)
            self._membership_drains.inc()
            self.telemetry.events.emit(
                EVENT_SHARD_DRAINED,
                shard=shard.index,
                entry=str(entry),
                handed_off=handed_off_records,
                buildings=len(export),
            )
            if self.replication > 1:
                self._warm_followers_async()
            return {
                "entry": entry,
                "handed_off_records": handed_off_records,
                "handed_off_buildings": len(export),
            }

    def warm_followers(self, timeout_s: float = 120.0) -> Dict[RingEntry, int]:
        """Preload every building's follower replicas; returns counts per entry.

        For each building in the store, the ``replication - 1`` entries
        after its primary in ring order are told to load its model
        artifacts now — so the shard that would inherit the building on
        failover already holds it.  A no-op with ``replication=1``.
        Dead shards are skipped (their buildings re-warm once they are
        back); warming is advisory and never raises for an individual
        building.

        Thread-safe; :meth:`start` runs one blocking sweep, and every
        membership change schedules an asynchronous one.
        """
        if self.replication < 2:
            return {}
        with self._ring_lock:
            ring = self._ring
        by_entry: Dict[RingEntry, List[str]] = {}
        for building_id in self.building_ids:
            for entry in ring.shards_for(building_id, self.replication)[1:]:
                by_entry.setdefault(entry, []).append(building_id)
        futures = []
        for entry, owned in by_entry.items():
            shard = self._lookup_entry(entry)
            if shard is None or shard.dead:
                continue
            try:
                futures.append((entry, shard.submit_control("warm", owned)))
            except RuntimeError:
                continue
        warmed: Dict[RingEntry, int] = {}
        for entry, future in futures:
            try:
                warmed[entry] = future.result(timeout=timeout_s)
            except Exception:  # noqa: BLE001 - shard died mid-warm
                continue
        return warmed

    def _warm_followers_async(self) -> None:
        """Fire-and-forget follower re-warm after a membership change.

        Runs on its own daemon thread: callers include reader and
        heartbeat threads, which must never block on cross-shard control
        round-trips.
        """
        threading.Thread(
            target=self._warm_followers_quietly,
            name="fleet-follower-warm",
            daemon=True,
        ).start()

    def _warm_followers_quietly(self) -> None:
        try:
            self.warm_followers()
        except Exception:  # noqa: BLE001 - advisory; the fleet keeps serving
            pass

    def pressure_snapshot(self) -> List[ShardPressure]:
        """Instantaneous per-shard load: the autoscaler's input signal.

        One :class:`ShardPressure` per live shard — inflight-window
        utilization plus the parent-observed p99.  Dead shards are
        omitted.  Thread-safe and cheap (no control round-trips; reads
        dispatcher-side state only).
        """
        pressures: List[ShardPressure] = []
        for shard in self._live_shards():
            with shard.lock:
                if shard.dead:
                    continue
                inflight = shard.inflight
                p99 = (
                    shard.latency_hist.quantile(0.99)
                    if shard.latency_hist.count
                    else None
                )
            pressures.append(
                ShardPressure(
                    entry=shard.entry,
                    index=shard.index,
                    inflight=inflight,
                    max_inflight=shard.max_inflight,
                    utilization=inflight / shard.max_inflight,
                    p99_s=p99,
                )
            )
        return pressures

    @property
    def building_ids(self) -> List[str]:
        """Every building with a persisted artifact in the store."""
        if not self.store_dir.is_dir():
            return []
        return sorted(
            child.name for child in self.store_dir.iterdir() if has_artifacts(child)
        )

    # -- request entry points --------------------------------------------------

    def submit(
        self,
        building_id: str,
        records: Union[Sequence[SignalRecord], RecordBatch],
        request_id: Optional[str] = None,
    ) -> "Future[LabelResponse]":
        """Route one label request to its owning shard.

        Raises
        ------
        ShardOverloadedError
            When the owning shard already has ``max_inflight`` requests
            outstanding — back off for ``retry_after_s`` and retry.
        RuntimeError
            When the server is not running or the owning worker has died.
        """
        validate_building_id(building_id)
        if len(records) == 0:
            raise ValueError("a label request needs at least one record")
        shard = self._route(building_id)
        try:
            # Pre-check before encoding: a rejected submit must cost the
            # dispatcher nothing, or retries would amplify the overload.
            shard.check_accepting()
        except ShardOverloadedError as error:
            replica = self._fanout_replica(building_id, shard)
            if replica is None:
                self._count_rejection(error.shard)
                raise
            shard = replica
        try:
            if isinstance(records, RecordBatch):
                encode_started = time.perf_counter()
                payload = _WireBatch.from_batch(records)
                self._encode_hist.observe(time.perf_counter() - encode_started)
            else:
                payload = tuple(records)
            if request_id is None:
                request_id = f"req-{next(self._request_counter)}"
            return shard.submit_label(building_id, payload, request_id)
        except ShardOverloadedError as error:
            self._count_rejection(error.shard)
            raise

    def _count_rejection(self, shard_index: int) -> None:
        """Account one backpressure rejection (stats counter + telemetry)."""
        with self._stats_lock:
            self._num_rejected += 1
        self.telemetry.metrics.counter(
            "fleet_shard_rejections_total",
            "Label submits rejected by a full per-shard inflight window",
            shard=str(shard_index),
        ).inc()

    def _fanout_replica(
        self, building_id: str, primary: _ShardHandle
    ) -> Optional[_ShardHandle]:
        """The first live, accepting follower replica — or ``None``.

        Consulted only when the primary's window rejected a submit and the
        fleet runs with ``read_fanout`` and ``replication >= 2``.  The
        follower holds the same versioned artifacts (kept warm by
        :meth:`warm_followers`), so serving from it changes which process
        answers, never the labels.
        """
        if not self.read_fanout or self.replication < 2:
            return None
        with self._ring_lock:
            entries = self._ring.shards_for(building_id, self.replication)[1:]
        for entry in entries:
            shard = self._lookup_entry(entry)
            if shard is None or shard is primary:
                continue
            try:
                shard.check_accepting()
            except (ShardOverloadedError, ShardDownError):
                continue
            self._fanout_counter.inc()
            return shard
        return None

    def serve(self, requests: Iterable[LabelRequest]) -> List[LabelResponse]:
        """Submit many requests (honouring backpressure) and await them all.

        A submit rejected by a full shard sleeps out the advertised
        ``retry_after_s`` and retries — the closed-loop discipline
        backpressure asks of well-behaved clients.  The same
        discipline extends past the local window: a server-side ``NACK``
        (the shard's own window was full) backs off and resubmits, and a request
        stranded on a shard that died mid-flight is resubmitted once the
        ring has failed the shard over — labeling is idempotent and the
        ``request_id`` is preserved, so a retry is indistinguishable from
        the original.  Responses come back in request order.
        """
        pairs = [(request, self._submit_retrying(request)) for request in requests]
        return [self._result_retrying(request, future) for request, future in pairs]

    def _submit_retrying(self, request: LabelRequest) -> "Future[LabelResponse]":
        down_attempts = 0
        while True:
            try:
                return self.submit(
                    request.building_id, request.records, request.request_id
                )
            except ShardOverloadedError as error:
                time.sleep(error.retry_after_s)
            except ShardDownError:
                # The send itself hit a broken connection before the
                # heartbeat could: the shard marked itself dead, so routing
                # again fails it over to a survivor.  Each failed attempt
                # removes a shard from the ring, so the retry budget is one
                # pass over the fleet.
                if not self.running:
                    raise
                down_attempts += 1
                if down_attempts > len(self._live_shards()):
                    raise

    def _result_retrying(
        self, request: LabelRequest, future: "Future[LabelResponse]"
    ) -> LabelResponse:
        while True:
            try:
                return future.result()
            except ShardOverloadedError as error:
                # Server-side NACK: the remote shard's own window was full.
                # Count it like a local rejection, back off, resubmit.
                with self._stats_lock:
                    self._num_rejected += 1
                self.telemetry.metrics.counter(
                    "fleet_shard_rejections_total",
                    "Label submits rejected by a full per-shard inflight window",
                    shard=str(error.shard),
                ).inc()
                time.sleep(error.retry_after_s)
                future = self._submit_retrying(request)
            except ShardDownError:
                if not self.running:
                    raise
                # The owning shard died with this request in flight; the
                # ring has (or is about to have) failed it over, so the
                # resubmit routes to a survivor.
                future = self._submit_retrying(request)

    # -- fleet-wide operations -------------------------------------------------

    def stats(self, timeout_s: float = 30.0) -> FleetWideStats:
        """Aggregate counters across every live shard.

        Shards that are dead — or die between the stats request and their
        reply — are skipped, so a single crashed worker cannot take fleet
        observability down with it.  Thread-safe against concurrent
        membership changes: the shard list is snapshotted under the
        membership lock before iterating, so a racing join, drain, or
        reconnect can never resize it mid-loop.
        """
        shard_stats: List[ShardStats] = []
        futures = []
        for shard in self._live_shards():
            if shard.dead:
                continue
            try:
                futures.append((shard.index, shard.submit_control("stats")))
            except RuntimeError:
                continue
        for index, future in futures:
            try:
                server_stats, registry_stats = future.result(timeout=timeout_s)
            except Exception:  # noqa: BLE001 - shard died mid-request
                continue
            shard_stats.append(
                ShardStats(shard=index, server=server_stats, registry=registry_stats)
            )
        with self._stats_lock:
            num_rejected = self._num_rejected
            stopped_elapsed = self._stopped_elapsed
            started_at = self._started_at
        if stopped_elapsed is not None:
            elapsed = stopped_elapsed
        elif started_at is not None:
            elapsed = time.perf_counter() - started_at
        else:
            elapsed = 0.0
        num_records = sum(stats.server.num_records for stats in shard_stats)
        return FleetWideStats(
            shards=tuple(shard_stats),
            num_requests=sum(stats.server.num_requests for stats in shard_stats),
            num_records=num_records,
            num_batches=sum(stats.server.num_batches for stats in shard_stats),
            num_rejected=num_rejected,
            elapsed_s=elapsed,
            records_per_second=(
                num_records / elapsed if elapsed > MIN_STATS_WINDOW_S else 0.0
            ),
        )

    # -- fleet-wide telemetry --------------------------------------------------

    def _poll_worker_telemetry(self, timeout_s: float) -> List[tuple]:
        """``(MetricsSnapshot, events, drops)`` from every live shard.

        Same degraded-mode contract as :meth:`stats`: shards that are dead,
        or die mid-request, are skipped rather than failing the poll — and
        the same snapshot-under-lock discipline protects the iteration
        from concurrent membership changes.
        """
        futures = []
        for shard in self._live_shards():
            if shard.dead:
                continue
            try:
                futures.append(shard.submit_control("telemetry"))
            except RuntimeError:
                continue
        payloads = []
        for future in futures:
            try:
                payloads.append(future.result(timeout=timeout_s))
            except Exception:  # noqa: BLE001 - shard died mid-request
                continue
        return payloads

    def fleet_metrics(self, timeout_s: float = 30.0) -> MetricsSnapshot:
        """One merged metrics snapshot: the dispatcher plus every live shard.

        Worker-side families carry each worker's ``shard`` const label, so
        merging never collapses distinct shards into one sample — a family
        like ``fleet_request_latency_seconds`` comes back with one child per
        ``(shard, building)`` pair, and
        :meth:`~repro.telemetry.MetricsSnapshot.latency_summary` can roll it
        up along either axis.
        """
        snapshots = [self.telemetry.metrics.snapshot()]
        snapshots.extend(
            payload[0] for payload in self._poll_worker_telemetry(timeout_s)
        )
        return MetricsSnapshot.merge(snapshots)

    def fleet_events(
        self,
        timeout_s: float = 30.0,
        kinds: Optional[Sequence[str]] = None,
    ) -> Tuple[FleetEvent, ...]:
        """Every buffered lifecycle event fleet-wide, in timestamp order.

        Merges the dispatcher's own ring (shard exits, observed
        parent-side) with each worker's (shard starts, drift trips, refresh
        start/done, rollback eligibility).  ``time.monotonic`` is
        system-wide on the platforms the fork/spawn workers run on, so the
        merged ordering is meaningful across processes.
        """
        streams = [self.telemetry.events.snapshot()]
        streams.extend(payload[1] for payload in self._poll_worker_telemetry(timeout_s))
        return merge_events(streams, kinds=kinds)

    def latency_summary(
        self,
        by: str = "shard",
        name: str = "fleet_request_latency_seconds",
        timeout_s: float = 30.0,
    ) -> Dict[str, Dict[str, float]]:
        """Fleet-merged latency quantiles grouped along one label axis.

        ``by="shard"`` answers "is one worker slow"; ``by="building"``
        answers "is one building slow" — both from the same histograms, the
        merge is just along a different axis.
        """
        return self.fleet_metrics(timeout_s).latency_summary(name, by)

    def render_prometheus(self, timeout_s: float = 30.0) -> str:
        """The fleet-merged metrics in Prometheus text exposition format."""
        return self.fleet_metrics(timeout_s).render_prometheus()

    def drift_snapshot(self, building_id: str, timeout_s: float = 30.0) -> DriftSnapshot:
        """The owning shard's drift statistics for one building."""
        validate_building_id(building_id)
        shard = self._route(building_id)
        return shard.submit_control("drift", building_id).result(timeout=timeout_s)

    def refresh_drifted(
        self,
        building_ids: Optional[Sequence[str]] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, RefreshReport]:
        """Refresh drifted buildings fleet-wide, each on its owning shard.

        ``building_ids`` defaults to every building in the store.  Each
        worker sweeps only the buildings the ring routes to it (a worker's
        registry can see the whole shared store, so the partition must be
        explicit), refreshes concurrently with its label traffic, and the
        per-shard reports are merged into one fleet-wide mapping.
        """
        if not self._live_shards():
            raise RuntimeError("the server is not running; call start() first")
        if building_ids is None:
            building_ids = self.building_ids
        by_shard: Dict[_ShardHandle, List[str]] = {}
        for building_id in building_ids:
            validate_building_id(building_id)
            by_shard.setdefault(self._route(building_id), []).append(building_id)
        futures = [
            (shard, shard.submit_control("refresh", owned))
            for shard, owned in by_shard.items()
        ]
        reports: Dict[str, RefreshReport] = {}
        for _, future in futures:
            reports.update(future.result(timeout=timeout_s))
        return reports

    def rollback_drifted(
        self,
        building_ids: Optional[Sequence[str]] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, int]:
        """Roll back drifted buildings fleet-wide, each on its owning shard.

        The sharded form of
        :meth:`~repro.serving.server.FleetServer.rollback_drifted`:
        ``building_ids`` (default: every building in the store) are
        partitioned by the ring exactly like :meth:`refresh_drifted`, each
        worker rolls back only the drifted buildings it owns — drift state
        lives in the owning worker's monitors, and single-writer-per-
        building discipline must hold for the ``CURRENT`` pointer swap —
        and the per-shard results merge into one mapping of building id to
        restored ``model_version``.
        """
        if not self._live_shards():
            raise RuntimeError("the server is not running; call start() first")
        if building_ids is None:
            building_ids = self.building_ids
        by_shard: Dict[_ShardHandle, List[str]] = {}
        for building_id in building_ids:
            validate_building_id(building_id)
            by_shard.setdefault(self._route(building_id), []).append(building_id)
        futures = [
            (shard, shard.submit_control("rollback", owned))
            for shard, owned in by_shard.items()
        ]
        restored: Dict[str, int] = {}
        for _, future in futures:
            restored.update(future.result(timeout=timeout_s))
        return restored
