"""One fleet shard: a :class:`FleetServer` behind the binary frame protocol.

:class:`ShardServer` is the one shard worker of
:class:`~repro.serving.sharded.ShardedFleetServer`: a
:class:`~repro.serving.registry.BuildingRegistry` under a coalescing
:class:`~repro.serving.server.FleetServer`, speaking the frames of
:mod:`~repro.serving.transport` over stream sockets.  It runs in one of two
places, with the same frames and the same code:

* **local** — the dispatcher forks a process per shard and hands it one end
  of a ``socket.socketpair()`` (:func:`serve_local_shard`).  The
  dispatcher stops it by half-closing its own end: the worker reads EOF,
  answers every request it accepted, and exits;
* **remote** — :meth:`ShardServer.start` binds a TCP listener, so a shard
  can live on another machine, in a process with no parent/child
  relationship to its dispatcher (``shard_addresses`` connect mode).

Design points:

* **Blocking I/O, one reader thread per connection.**  Each connection's
  thread reads frames with :func:`~repro.serving.transport.recv_frame` and
  dispatches them; a listener adds one accept thread.  A label completion
  writes its response frame straight from the inner server's callback
  thread, under the connection's write lock.
* **Pipelined, out-of-order responses.**  Requests carry a ``seq``;
  responses are written whenever the inner server's future resolves, so a
  connection keeps many label requests in flight and slow buildings never
  head-of-line-block fast ones.
* **Bounded inflight, NACK on saturation.**  The server honours the same
  backpressure contract as the dispatcher-side window: once
  ``max_inflight`` label requests are outstanding *server-wide*, further
  label frames are answered immediately with ``OP_NACK`` carrying a
  ``retry_after_s`` hint from recent completion latency — the dispatcher
  surfaces that as :class:`~repro.serving.sharded.ShardOverloadedError`.
* **Fail the frame, not the process.**  Malformed payloads on an intact
  frame answer ``OP_ERR`` and the connection lives on; framing violations
  (bad magic/version/length, which desynchronise the byte stream) answer
  once and close that connection only.  The shard keeps serving its other
  connections either way.
* **Drain before close.**  A connection whose peer closes (or half-closes)
  is answered in full before it is closed, and :meth:`ShardServer.stop`
  drains every accepted label and flushes its response first.
* **A peer that stops reading loses its connection, not the shard.**
  Every connection's writes carry a send deadline (``SO_SNDTIMEO``): a
  write that makes no progress for :data:`SEND_TIMEOUT_S` drops that
  connection, its remaining answers are skipped, and the completion
  threads, the inflight window and :meth:`ShardServer.stop` move on.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Set, Tuple, Union

from repro.core.config import FisOneConfig
from repro.serving.drift import RefreshPolicy
from repro.serving.registry import BuildingRegistry, validate_building_id
from repro.serving.server import FleetServer
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
    decode_control,
    decode_label_batch,
    encode_frame,
    encode_labels,
    encode_nack,
    encode_pong,
    recv_frame,
)
from repro.signals.batch import MacVocab
from repro.telemetry import EVENT_SHARD_START, Telemetry

PathLike = Union[str, Path]

#: Fallback NACK hint before the server has completed any request.
_DEFAULT_RETRY_AFTER_S = 0.05

#: How long one frame write may make no progress before its peer is taken
#: to have stopped reading and the connection is dropped.  Applies to the
#: shard's response writes and to the dispatcher's request writes.
SEND_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard needs to build its serving stack.

    ``capacity``, ``config``, ``refresh_policy`` and ``keep_generations``
    configure the shard's
    :class:`~repro.serving.registry.BuildingRegistry` (every shard of a
    fleet shares one store, so they must agree on its layout).
    ``inner_workers`` and ``max_batch_size`` configure the inner
    :class:`~repro.serving.server.FleetServer`: a building with no batch
    running is labeled at once, and requests arriving behind a running
    batch go out together when it finishes (or on reaching
    ``max_batch_size``), so batch size follows load with no timer.
    ``max_inflight`` bounds label requests outstanding across *all* of the
    shard's connections.
    """

    store_dir: PathLike
    capacity: int = 8
    config: Optional[FisOneConfig] = None
    refresh_policy: Optional[RefreshPolicy] = None
    inner_workers: int = 2
    max_batch_size: int = 64
    keep_generations: Optional[int] = None
    max_inflight: int = 64


def _picklable(error: BaseException) -> BaseException:
    """The error itself when it survives pickling, else a summary of it."""
    try:
        pickle.dumps(error)
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def _error_body(error: BaseException) -> bytes:
    return pickle.dumps(_picklable(error))


def set_send_timeout(sock: socket.socket) -> None:
    """Make a write on ``sock`` that makes no progress for
    :data:`SEND_TIMEOUT_S` fail with ``OSError`` instead of blocking."""
    seconds = int(SEND_TIMEOUT_S)
    sock.setsockopt(
        socket.SOL_SOCKET,
        socket.SO_SNDTIMEO,
        struct.pack("ll", seconds, int((SEND_TIMEOUT_S - seconds) * 1e6)),
    )


class _Connection:
    """One peer socket: serialized writes and a count of unanswered requests.

    A write that fails — the peer is gone, or it stopped reading past the
    send deadline, possibly leaving part of a frame on the wire — marks
    the connection ``broken`` and shuts the socket: later answers are
    skipped (their requests still retire) and the reader sees EOF.
    """

    __slots__ = ("sock", "write_lock", "idle", "unanswered", "broken")

    def __init__(self, sock: socket.socket) -> None:
        set_send_timeout(sock)
        self.sock = sock
        self.write_lock = threading.Lock()
        self.idle = threading.Condition(threading.Lock())
        self.unanswered = 0
        self.broken = False

    def accept(self) -> None:
        with self.idle:
            self.unanswered += 1

    def write(self, frame: bytes, answers: bool) -> bool:
        """Send one frame; ``answers`` retires one accepted request."""
        with self.write_lock:
            sent = False
            if not self.broken:
                try:
                    self.sock.sendall(frame)
                    sent = True
                except OSError:
                    self.broken = True
                    self.shutdown()
        if answers:
            with self.idle:
                self.unanswered -= 1
                if self.unanswered == 0:
                    self.idle.notify_all()
        return sent

    def wait_answered(self) -> None:
        with self.idle:
            while self.unanswered:
                self.idle.wait()

    def shutdown(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class ShardServer:
    """One fleet shard serving the binary frame protocol (see module docstring).

    ``spec`` (a :class:`ShardSpec`) builds the serving stack.  ``host`` and
    ``port`` bind a TCP listener on :meth:`start` (``port=0`` picks an
    ephemeral port, published as :attr:`port`); ``host=None`` binds none,
    and the caller hands connected sockets to :meth:`serve_connection`
    instead — the local-shard path of :func:`serve_local_shard`.
    """

    def __init__(
        self,
        spec: ShardSpec,
        host: Optional[str] = "127.0.0.1",
        port: int = 0,
        *,
        shard_index: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if spec.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.spec = spec
        self.host = host
        self.shard_index = shard_index
        self.max_inflight = spec.max_inflight
        #: The bound port; equals the requested port after :meth:`start`
        #: (the ephemeral port the kernel picked when constructed with 0).
        self.port = port
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(shard=shard_index)
        )
        self._lifecycle_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._registry: Optional[BuildingRegistry] = None
        self._server: Optional[FleetServer] = None
        self._control_pool: Optional[ThreadPoolExecutor] = None
        self._vocab = MacVocab()
        self._connections_lock = threading.Lock()
        self._connections: Set[_Connection] = set()
        self._readers: Set[threading.Thread] = set()
        # Server-wide request state, shared by every connection's reader
        # and the completion callbacks: the inflight count and the latency
        # estimator behind the NACK hint.
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self._latency_ewma: Optional[float] = None
        metrics = self.telemetry.metrics
        # side="server" keeps these families distinct from the dispatcher's
        # same-named children when fleet_metrics() merges both snapshots.
        self._frame_decode_hist = metrics.histogram(
            "fleet_frame_decode_seconds",
            "Server-side decode of one binary label frame into a batch",
            side="server",
        )
        self._frame_encode_hist = metrics.histogram(
            "fleet_frame_encode_seconds",
            "Server-side encode of one label tuple into a binary frame",
            side="server",
        )
        self._latency_hist = metrics.histogram(
            "fleet_server_label_seconds",
            "Server-observed accept-to-completion time of one label frame",
        )
        self._bytes_received = metrics.counter(
            "fleet_transport_bytes_received_total",
            "Frame bytes read off accepted connections",
            side="server",
        )
        self._bytes_sent = metrics.counter(
            "fleet_transport_bytes_sent_total",
            "Frame bytes written to accepted connections",
            side="server",
        )
        self._nacks = metrics.counter(
            "fleet_transport_nacks_total",
            "Label frames rejected with OP_NACK by the saturated inflight window",
            side="server",
        )
        self._inflight_gauge = metrics.gauge(
            "fleet_server_inflight",
            "Label frames outstanding inside this shard server",
        )

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The listener's ``(host, port)``; port is final after :meth:`start`."""
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        """Whether the serving stack is up (started and not yet stopped)."""
        return self._server is not None

    def start(self) -> "ShardServer":
        """Build the serving stack and, with a ``host``, begin accepting."""
        with self._lifecycle_lock:
            if self._server is not None:
                return self
            listener = None
            if self.host is not None:
                listener = socket.create_server((self.host, self.port))
                self.port = listener.getsockname()[1]
            self.telemetry.events.emit(EVENT_SHARD_START, pid=os.getpid())
            spec = self.spec
            self._registry = BuildingRegistry(
                store_dir=str(spec.store_dir),
                capacity=spec.capacity,
                config=spec.config,
                refresh_policy=spec.refresh_policy,
                telemetry=self.telemetry,
                keep_generations=spec.keep_generations,
            )
            self._server = FleetServer(
                self._registry,
                num_workers=spec.inner_workers,
                max_batch_size=spec.max_batch_size,
            ).start()
            self._control_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"shard-{self.shard_index}-control"
            )
            if listener is not None:
                self._listener = listener
                self._accept_thread = threading.Thread(
                    target=self._accept_loop,
                    args=(listener,),
                    name=f"shard-server-{self.shard_index}-accept",
                    daemon=True,
                )
                self._accept_thread.start()
            return self

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain in-flight labels, flush their responses, and shut down."""
        with self._lifecycle_lock:
            if self._server is None:
                return
            if self._listener is not None:
                try:
                    self._listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                self._listener.close()
                self._accept_thread.join(timeout=timeout_s)
                self._listener = None
                self._accept_thread = None
            # Drain the inner server first: completions write their
            # response frames on still-open connections, so a clean stop
            # never drops answers to accepted requests.
            self._server.stop()
            self._control_pool.shutdown(wait=True)
            with self._connections_lock:
                connections = list(self._connections)
                readers = list(self._readers)
            for connection in connections:
                connection.shutdown()
            for reader in readers:
                reader.join(timeout=timeout_s)
            self._server = None
            self._registry = None
            self._control_pool = None

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connections -----------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener shut by stop()
            reader = threading.Thread(
                target=self._serve_accepted,
                args=(sock,),
                name=f"shard-server-{self.shard_index}-conn",
                daemon=True,
            )
            with self._connections_lock:
                self._readers.add(reader)
            reader.start()

    def _serve_accepted(self, sock: socket.socket) -> None:
        try:
            self.serve_connection(sock)
        finally:
            with self._connections_lock:
                self._readers.discard(threading.current_thread())

    def serve_connection(self, sock: socket.socket) -> None:
        """Serve one connected socket until its peer closes it.

        Blocks on the calling thread.  When the peer closes (or
        half-closes) its end, every request already accepted on this
        connection is answered before the socket is closed.
        """
        connection = _Connection(sock)
        with self._connections_lock:
            self._connections.add(connection)
        try:
            while True:
                try:
                    op, seq, payload = recv_frame(sock)
                except FrameError as error:
                    # Framing is lost; answer once (best effort) and close.
                    self._send(
                        connection,
                        OP_ERR,
                        error.seq if error.seq is not None else 0,
                        _error_body(error),
                    )
                    break
                except (EOFError, OSError):
                    # Peer closed — cleanly between frames or mid-frame;
                    # either way this connection is done, the server lives.
                    break
                if connection.broken:
                    break  # dropped by a failed write; admit nothing more
                self._bytes_received.inc(HEADER_SIZE + len(payload))
                self._dispatch(connection, op, seq, payload)
            connection.wait_answered()
        finally:
            with self._connections_lock:
                self._connections.discard(connection)
            sock.close()

    # -- frame dispatch (reader threads) -----------------------------------------

    def _send(
        self,
        connection: _Connection,
        op: int,
        seq: int,
        payload: bytes = b"",
        answers: bool = False,
    ) -> None:
        frame = encode_frame(op, seq, payload)
        if connection.write(frame, answers):
            self._bytes_sent.inc(len(frame))

    def _retry_after_hint(self) -> float:
        with self._inflight_lock:
            ewma = self._latency_ewma
        if ewma is not None:
            return min(1.0, max(0.005, ewma))
        return _DEFAULT_RETRY_AFTER_S

    def _dispatch(
        self, connection: _Connection, op: int, seq: int, payload: bytes
    ) -> None:
        if op == OP_PING:
            self._send(connection, OP_PONG, seq, encode_pong(os.getpid()))
        elif op in (OP_LABEL_BATCH, OP_LABEL_PICKLE):
            self._dispatch_label(connection, op, seq, payload)
        elif op == OP_CONTROL:
            try:
                name, args = decode_control(payload)
            except FrameError as error:
                # The frame itself was well-formed, so the stream is still
                # in sync — reject the command, keep the connection.
                self._send(connection, OP_ERR, seq, _error_body(error))
                return
            connection.accept()
            try:
                self._control_pool.submit(self._run_control, connection, name, args, seq)
            except RuntimeError as error:  # stopping: the pool takes no more
                self._send(connection, OP_ERR, seq, _error_body(error), answers=True)
        else:
            # A response op arriving at the server (parse_header already
            # rejected unknown codes).
            self._send(
                connection,
                OP_ERR,
                seq,
                _error_body(RuntimeError(f"unexpected frame op 0x{op:02x}")),
            )

    def _dispatch_label(
        self, connection: _Connection, op: int, seq: int, payload: bytes
    ) -> None:
        with self._inflight_lock:
            admitted = self._inflight < self.max_inflight
            if admitted:
                self._inflight += 1
        if not admitted:
            self._nacks.inc()
            self._send(connection, OP_NACK, seq, encode_nack(self._retry_after_hint()))
            return
        try:
            if op == OP_LABEL_BATCH:
                decode_started = time.perf_counter()
                building_id, wire = decode_label_batch(payload)
                validate_building_id(building_id)
                records = wire.to_batch(self._vocab)
                self._frame_decode_hist.observe(time.perf_counter() - decode_started)
            else:
                building_id, records = pickle.loads(payload)
                validate_building_id(building_id)
            future = self._server.submit(building_id, records)
        except Exception as error:  # noqa: BLE001 - answered as a frame
            with self._inflight_lock:
                self._inflight -= 1
            self._send(connection, OP_ERR, seq, _error_body(error))
            return
        connection.accept()
        accepted_at = time.perf_counter()
        future.add_done_callback(
            lambda done: self._complete_label(connection, seq, done, accepted_at)
        )

    def _complete_label(self, connection, seq, future, accepted_at) -> None:
        latency = time.perf_counter() - accepted_at
        with self._inflight_lock:
            self._inflight -= 1
            self._latency_ewma = (
                latency
                if self._latency_ewma is None
                else 0.8 * self._latency_ewma + 0.2 * latency
            )
        self._latency_hist.observe(latency)
        error = future.exception()
        if error is not None:
            self._send(connection, OP_ERR, seq, _error_body(error), answers=True)
            return
        encode_started = time.perf_counter()
        body = encode_labels(future.result().labels)
        self._frame_encode_hist.observe(time.perf_counter() - encode_started)
        self._send(connection, OP_OK_LABELS, seq, body, answers=True)

    # -- control plane (pool thread) --------------------------------------------

    def _run_control(self, connection: _Connection, name: str, args: tuple, seq: int) -> None:
        try:
            result = self._control(name, args)
            op, body = OP_OK_PICKLE, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # noqa: BLE001 - answered as a frame
            op, body = OP_ERR, _error_body(error)
        self._send(connection, op, seq, body, answers=True)

    def _control(self, name: str, args: tuple):
        if name == "stats":
            return (self._server.stats(), self._registry.stats)
        if name == "drift":
            return self._registry.drift_snapshot(args[0])
        if name == "refresh":
            return self._server.refresh_drifted(args[0])
        if name == "rollback":
            return self._server.rollback_drifted(args[0])
        if name == "warm":
            return self._registry.warm(args[0])
        if name == "handoff_export":
            return self._registry.export_building_state(args[0])
        if name == "handoff_import":
            return self._registry.import_building_state(args[0])
        if name == "telemetry":
            # Sampled gauges are set when scraped, not per request.
            self._server.sync_gauges()
            with self._inflight_lock:
                inflight = self._inflight
            self._inflight_gauge.set(inflight)
            return (
                self.telemetry.metrics.snapshot(),
                self.telemetry.events.snapshot(),
                self.telemetry.events.drops,
            )
        raise RuntimeError(f"unknown control op {name!r}")


def serve_local_shard(sock: socket.socket, spec: ShardSpec, shard_index: int) -> None:
    """Entry point of one dispatcher-owned shard process.

    Serves ``sock`` — the worker's end of a ``socket.socketpair()`` — with a
    listener-less :class:`ShardServer` until the dispatcher half-closes its
    end, then answers what is left and exits.
    """
    try:
        server = ShardServer(spec, host=None, shard_index=shard_index).start()
    except Exception as error:
        # Answer the dispatcher's first frame — its startup ping — with the
        # cause, so its start() fails with this error rather than a bare EOF.
        try:
            _, seq, _ = recv_frame(sock)
            sock.sendall(encode_frame(OP_ERR, seq, _error_body(error)))
        except (EOFError, OSError, FrameError):
            pass
        sock.close()
        raise
    try:
        server.serve_connection(sock)
    finally:
        server.stop()
