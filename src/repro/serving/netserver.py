"""TCP front-end of one fleet shard: a :class:`FleetServer` behind a socket.

:class:`ShardServer` is the network-native counterpart of the pipe worker in
:mod:`~repro.serving.sharded`: the same serving stack (a
:class:`~repro.serving.registry.BuildingRegistry` under a coalescing
:class:`~repro.serving.server.FleetServer`), but fronted by a TCP listener
speaking the binary frame protocol of :mod:`~repro.serving.transport` — so a
shard can live on another machine, or simply in another process with no
parent/child relationship to its dispatcher.

Design points:

* **asyncio loop on a dedicated thread.**  Frame I/O is async (one
  coroutine per connection); the blocking serving stack stays untouched.
  Label completions hop back onto the loop via ``call_soon_threadsafe``, so
  every socket write happens on the loop thread and needs no locks.
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
"""

from __future__ import annotations

import asyncio
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.core.config import FisOneConfig
from repro.serving.drift import RefreshPolicy
from repro.serving.registry import BuildingRegistry, validate_building_id
from repro.serving.server import FleetServer
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
    decode_control,
    decode_label_batch,
    encode_frame,
    encode_labels,
    encode_nack,
    encode_pong,
    parse_header,
)
from repro.signals.batch import MacVocab
from repro.telemetry import EVENT_SHARD_START, Telemetry

PathLike = Union[str, Path]

#: Fallback NACK hint before the server has completed any request.
_DEFAULT_RETRY_AFTER_S = 0.05


def _picklable(error: BaseException) -> BaseException:
    """The error itself when it survives pickling, else a summary of it."""
    try:
        pickle.dumps(error)
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


class ShardServer:
    """One fleet shard behind a TCP listener (see module docstring).

    Parameters mirror the worker half of
    :class:`~repro.serving.sharded.ShardedFleetServer`: ``store_dir`` plus
    the registry/server knobs build the same serving stack a pipe worker
    would run; ``host``/``port`` bind the listener (``port=0`` picks an
    ephemeral port, published as :attr:`port` after :meth:`start`).
    ``inner_workers`` and ``max_batch_size`` configure the inner
    :class:`~repro.serving.server.FleetServer`: a building with no batch
    running is labeled at once, and requests arriving behind a running
    batch go out together when it finishes (or on reaching
    ``max_batch_size``), so batch size follows load with no timer.
    ``max_inflight`` bounds label requests outstanding across *all*
    connections — the server-side half of the end-to-end backpressure
    story.
    """

    def __init__(
        self,
        store_dir: PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shard_index: int = 0,
        capacity: int = 8,
        config: Optional[FisOneConfig] = None,
        refresh_policy: Optional[RefreshPolicy] = None,
        mmap: bool = True,
        inner_workers: int = 2,
        max_batch_size: int = 64,
        keep_generations: Optional[int] = None,
        shared_prefix: Optional[str] = None,
        max_inflight: int = 64,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.store_dir = Path(store_dir)
        self.host = host
        self.shard_index = shard_index
        self.max_inflight = max_inflight
        #: The bound port; equals the requested port after :meth:`start`
        #: (the ephemeral port the kernel picked when constructed with 0).
        self.port = port
        self._requested_port = port
        self._registry_kwargs = dict(
            capacity=capacity,
            config=config,
            refresh_policy=refresh_policy,
            mmap=mmap,
            keep_generations=keep_generations,
        )
        self._shared_prefix = shared_prefix
        self._server_kwargs = dict(
            num_workers=inner_workers,
            max_batch_size=max_batch_size,
        )
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(shard=shard_index)
        )
        self._lifecycle_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._startup_error: Optional[BaseException] = None
        self._shared_store: Optional[SharedArrayStore] = None
        self._registry: Optional[BuildingRegistry] = None
        self._server: Optional[FleetServer] = None
        self._control_pool: Optional[ThreadPoolExecutor] = None
        self._vocab = MacVocab()
        # Loop-thread-confined request state: the inflight count and the
        # latency estimators backing the NACK hint are only ever touched on
        # the loop thread, so they need no lock.
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
        """Whether the asyncio serving thread is alive and accepting."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ShardServer":
        """Build the serving stack, bind the listener, and begin accepting."""
        with self._lifecycle_lock:
            if self._thread is not None:
                return self
            self.telemetry.events.emit(EVENT_SHARD_START, pid=os.getpid())
            self._shared_store = (
                SharedArrayStore(prefix=self._shared_prefix)
                if self._shared_prefix is not None
                else None
            )
            self._registry = BuildingRegistry(
                store_dir=str(self.store_dir),
                shared_store=self._shared_store,
                telemetry=self.telemetry,
                **self._registry_kwargs,
            )
            self._server = FleetServer(self._registry, **self._server_kwargs).start()
            self._control_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"shard-{self.shard_index}-control"
            )
            self._startup_error = None
            self._loop = asyncio.new_event_loop()
            started = threading.Event()
            self._thread = threading.Thread(
                target=self._run_loop,
                args=(started,),
                name=f"shard-server-{self.shard_index}",
                daemon=True,
            )
            self._thread.start()
            started.wait()
            if self._startup_error is not None:
                error = self._startup_error
                self._thread.join(timeout=5.0)
                self._thread = None
                self._teardown_stack()
                raise error
            return self

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain in-flight labels, flush their responses, and shut down."""
        with self._lifecycle_lock:
            if self._thread is None:
                return
            # Drain the inner server first: completions flush their
            # response frames through the still-running loop, so a clean
            # stop never drops answers to accepted requests.
            self._server.stop()
            self._control_pool.shutdown(wait=True)
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass  # loop already gone
            self._thread.join(timeout=timeout_s)
            self._thread = None
            self._teardown_stack()

    def _teardown_stack(self) -> None:
        if self._server is not None and self._server.running:
            self._server.stop()
        self._server = None
        self._registry = None
        if self._control_pool is not None:
            self._control_pool.shutdown(wait=True)
            self._control_pool = None
        if self._shared_store is not None:
            self._shared_store.close()
            self._shared_store = None

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- event loop ------------------------------------------------------------

    def _run_loop(self, started: threading.Event) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            self._asyncio_server = await asyncio.start_server(
                self._serve_connection, self.host, self._requested_port
            )
            self.port = self._asyncio_server.sockets[0].getsockname()[1]

        try:
            loop.run_until_complete(boot())
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            self._asyncio_server.close()
            loop.run_until_complete(self._asyncio_server.wait_closed())
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*asyncio.all_tasks(loop), return_exceptions=True)
            )
            loop.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    # Peer closed — cleanly between frames or mid-frame;
                    # either way this connection is done, the server lives.
                    break
                try:
                    op, seq, length = parse_header(header)
                    payload = await reader.readexactly(length) if length else b""
                except FrameError as error:
                    # Framing is lost; answer once (best effort) and close.
                    self._write_frame(
                        writer,
                        OP_ERR,
                        error.seq if error.seq is not None else 0,
                        pickle.dumps(_picklable(error)),
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                self._bytes_received.inc(HEADER_SIZE + length)
                self._dispatch(op, seq, payload, writer)
        except asyncio.CancelledError:
            # Server stopping: ending the task normally (instead of
            # propagating the cancel) keeps asyncio.streams' done-callback
            # from logging a spurious "exception in callback".
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - transport already torn down
                pass

    # -- frame dispatch (loop thread) -------------------------------------------

    def _write_frame(
        self, writer: asyncio.StreamWriter, op: int, seq: int, payload: bytes = b""
    ) -> None:
        if writer.is_closing():
            return
        frame = encode_frame(op, seq, payload)
        try:
            writer.write(frame)
        except Exception:  # noqa: BLE001 - peer vanished mid-write
            return
        self._bytes_sent.inc(len(frame))

    def _threadsafe(self, callback, *args) -> None:
        """Marshal ``callback`` onto the loop thread; drop it if the loop died."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass

    def _retry_after_hint(self) -> float:
        if self._latency_ewma is not None:
            return min(1.0, max(0.005, self._latency_ewma))
        return _DEFAULT_RETRY_AFTER_S

    def _dispatch(
        self, op: int, seq: int, payload: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if op == OP_PING:
            self._write_frame(writer, OP_PONG, seq, encode_pong(os.getpid()))
        elif op in (OP_LABEL_BATCH, OP_LABEL_PICKLE):
            self._dispatch_label(op, seq, payload, writer)
        elif op == OP_CONTROL:
            try:
                name, args = decode_control(payload)
            except FrameError as error:
                # The frame itself was well-formed, so the stream is still
                # in sync — reject the command, keep the connection.
                self._write_frame(writer, OP_ERR, seq, pickle.dumps(_picklable(error)))
                return
            self._control_pool.submit(self._run_control, name, args, seq, writer)
        else:
            # A response op arriving at the server (parse_header already
            # rejected unknown codes).
            self._write_frame(
                writer,
                OP_ERR,
                seq,
                pickle.dumps(RuntimeError(f"unexpected frame op 0x{op:02x}")),
            )

    def _dispatch_label(
        self, op: int, seq: int, payload: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if self._inflight >= self.max_inflight:
            self._nacks.inc()
            self._write_frame(writer, OP_NACK, seq, encode_nack(self._retry_after_hint()))
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
            self._write_frame(writer, OP_ERR, seq, pickle.dumps(_picklable(error)))
            return
        self._inflight += 1
        self._inflight_gauge.set(self._inflight)
        accepted_at = time.perf_counter()
        future.add_done_callback(
            lambda done: self._threadsafe(
                self._complete_label, seq, writer, done, accepted_at
            )
        )

    def _complete_label(self, seq, writer, future, accepted_at) -> None:
        self._inflight -= 1
        self._inflight_gauge.set(self._inflight)
        latency = time.perf_counter() - accepted_at
        self._latency_ewma = (
            latency
            if self._latency_ewma is None
            else 0.8 * self._latency_ewma + 0.2 * latency
        )
        self._latency_hist.observe(latency)
        error = future.exception()
        if error is not None:
            self._write_frame(writer, OP_ERR, seq, pickle.dumps(_picklable(error)))
            return
        encode_started = time.perf_counter()
        body = encode_labels(future.result().labels)
        self._frame_encode_hist.observe(time.perf_counter() - encode_started)
        self._write_frame(writer, OP_OK_LABELS, seq, body)

    # -- control plane (pool thread) --------------------------------------------

    def _run_control(self, name: str, args: tuple, seq: int, writer) -> None:
        try:
            result = self._control(name, args)
            op, body = OP_OK_PICKLE, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # noqa: BLE001 - answered as a frame
            op, body = OP_ERR, pickle.dumps(_picklable(error))
        self._threadsafe(self._write_frame, writer, op, seq, body)

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
            self._server.sync_gauges()  # sampled gauges are set when scraped
            return (
                self.telemetry.metrics.snapshot(),
                self.telemetry.events.snapshot(),
                self.telemetry.events.drops,
            )
        if name == "stop":
            # Ack first, stop shortly after: stop() joins the loop thread,
            # so it cannot run inline under the reply write.
            threading.Timer(0.2, self.stop).start()
            return None
        raise RuntimeError(f"unknown control op {name!r}")


def _tcp_shard_main(connection, spec, shard_index: int, host: str) -> None:
    """Entry point of one spawned TCP shard worker process.

    Builds a :class:`ShardServer` from the dispatcher's ``_ShardSpec``
    (duck-typed to avoid importing the dispatcher module here), reports the
    bound ephemeral port back through the multiprocessing pipe as
    ``("ready", port)`` — or ``("error", exception)`` — then blocks until
    the parent signals stop (any message, or pipe EOF) and shuts down.
    """
    server = ShardServer(
        store_dir=spec.store_dir,
        host=host,
        port=0,
        shard_index=shard_index,
        capacity=spec.capacity,
        config=spec.config,
        refresh_policy=spec.refresh_policy,
        mmap=spec.mmap,
        inner_workers=spec.inner_workers,
        max_batch_size=spec.max_batch_size,
        keep_generations=spec.keep_generations,
        shared_prefix=spec.shared_prefix,
        max_inflight=spec.max_inflight,
    )
    try:
        server.start()
    except Exception as error:  # noqa: BLE001 - reported to the parent
        try:
            connection.send(("error", _picklable(error)))
        finally:
            connection.close()
        return
    try:
        connection.send(("ready", server.port))
        try:
            connection.recv()  # blocks until the parent signals stop
        except (EOFError, OSError):
            pass  # parent is gone; shut down anyway
    finally:
        server.stop()
        connection.close()
