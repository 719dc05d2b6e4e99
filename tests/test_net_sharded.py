"""Sharded fleet over the frame protocol: identity, backpressure, failover.

The contract under test: a fleet of :class:`ShardServer` shards — forked
locally on socketpairs, or reached over TCP in connect mode — labels
bit-identically to a single-process :class:`FleetServer`, while adding
shards in unrelated processes (connect mode), server-side NACK
backpressure that survives the wire, heartbeat-driven failover that keeps
serving through a SIGKILLed shard, and a threaded shard server whose
connections fail and drain independently.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.serving import (
    BuildingRegistry,
    FleetServer,
    LabelRequest,
    ShardedFleetServer,
    ShardServer,
    ShardSpec,
)
from repro.serving import netserver
from repro.serving.sharded import ConsistentHashRing, ShardDownError, stable_hash64
from repro.serving.transport import (
    OP_ERR,
    OP_LABEL_BATCH,
    OP_LABEL_PICKLE,
    OP_NACK,
    OP_OK_LABELS,
    OP_PING,
    OP_PONG,
    decode_labels,
    encode_frame,
    recv_frame,
)
from repro.simulate import generate_single_building
from repro.telemetry import EVENT_SHARD_DOWN, EVENT_SHARD_RECOVERED

FAST_CONFIG = FisOneConfig(
    gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
    num_epochs=2,
    max_pairs_per_epoch=8_000,
    inference_passes=1,
    inference_sample_sizes=(20, 10),
)

BUILDING_IDS = ("net-a", "net-b", "net-c", "net-d")


@pytest.fixture(scope="module")
def net_store(tmp_path_factory):
    """Four small fitted buildings persisted to one store, plus streams."""
    store = tmp_path_factory.mktemp("net-store")
    registry = BuildingRegistry(store_dir=store, config=FAST_CONFIG, capacity=4)
    streams = {}
    for index, building_id in enumerate(BUILDING_IDS):
        labeled = generate_single_building(
            num_floors=3, samples_per_floor=25, seed=60 + index
        )
        train, stream = labeled.holdout_split(train_per_floor=18)
        anchor = train.pick_labeled_sample(floor=0)
        observed = train.strip_labels(keep_record_ids=[anchor.record_id])
        registry.register(building_id, observed, anchor_record_id=anchor.record_id)
        registry.get(building_id)
        streams[building_id] = [record.without_floor() for record in stream]
    return store, streams


def shard_spec(store, **overrides):
    """The spec of a 4-model shard server over ``store``."""
    return ShardSpec(str(store), config=FAST_CONFIG, capacity=4, **overrides)


def make_requests(streams, chunk=5):
    requests = []
    for building_id, stream in streams.items():
        for start in range(0, len(stream), chunk):
            block = stream[start : start + chunk]
            if block:
                requests.append(
                    LabelRequest(
                        request_id=f"req-{len(requests)}",
                        building_id=building_id,
                        records=tuple(block),
                    )
                )
    return requests


def label_tuples(responses):
    return [
        (label.record_id, label.floor, label.confidence, label.known_mac_fraction)
        for response in responses
        for label in response.labels
    ]


def serve_sequentially(submit, requests):
    """Submit one request at a time, awaiting each before the next.

    Bit-identity comparisons need identical *batch composition* on every
    topology: the centroid scoring runs one BLAS matmul per coalesced
    batch, and BLAS kernels may regroup reductions differently for
    different matrix shapes (ulp-level differences).  Sequential
    submit-and-wait pins every topology to one-request-per-batch, making
    the comparison deterministic; the pipelined paths get their own
    (composition-insensitive) assertions.
    """
    return [submit(request).result(timeout=120) for request in requests]


@pytest.fixture(scope="module")
def reference_labels(net_store):
    """Single-process FleetServer labels: the bit-identity ground truth.

    ``mmap=True`` matches how fleet workers load artifacts: BLAS kernel
    selection keys off buffer alignment, so a heap-loaded and an mmap'd
    copy of the same model can score centroids ulps apart.  Bit-identity
    across topologies requires the same artifact representation on both
    sides of the comparison.
    """
    store, streams = net_store
    registry = BuildingRegistry(store_dir=store, config=FAST_CONFIG, mmap=True)
    with FleetServer(registry) as server:
        responses = serve_sequentially(
            lambda request: server.submit(request.building_id, request.records),
            make_requests(streams),
        )
    return label_tuples(responses)


def fleet_submit(fleet):
    return lambda request: fleet.submit(
        request.building_id, request.records, request.request_id
    )


class TestTcpIdentity:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_tcp_labels_match_single_process_server(
        self, net_store, reference_labels, num_workers
    ):
        store, streams = net_store
        with ShardedFleetServer(
            store,
            num_workers=num_workers,
            config=FAST_CONFIG,
            shard_capacity=4,
        ) as fleet:
            responses = serve_sequentially(fleet_submit(fleet), make_requests(streams))
        assert label_tuples(responses) == reference_labels

    def test_pipelined_serve_completes_in_request_order(self, net_store):
        store, streams = net_store
        requests = make_requests(streams)
        with ShardedFleetServer(
            store, num_workers=2, config=FAST_CONFIG
        ) as fleet:
            responses = fleet.serve(requests)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        assert all(
            [label.record_id for label in response.labels]
            == [record.record_id for record in request.records]
            for response, request in zip(responses, requests)
        )

    def test_connect_mode_against_external_shard_servers(self, net_store):
        store, streams = net_store
        requests = make_requests(streams)
        servers = [
            ShardServer(shard_spec(store), shard_index=index).start()
            for index in range(2)
        ]
        try:
            addresses = [f"{host}:{port}" for host, port in (s.address for s in servers)]
            with ShardedFleetServer(
                store, config=FAST_CONFIG, shard_addresses=addresses
            ) as fleet:
                assert fleet.num_workers == 2
                responses = fleet.serve(requests)
            assert len(responses) == len(requests)
            # The external servers outlive the dispatcher (connect mode
            # does not own them): they still answer a fresh dispatcher.
            with ShardedFleetServer(store, shard_addresses=addresses) as fleet:
                again = fleet.serve(requests[:2])
            assert len(again) == 2
        finally:
            for server in servers:
                server.stop()

    def test_fleet_stats_and_telemetry_merge_over_tcp(self, net_store):
        store, streams = net_store
        with ShardedFleetServer(
            store, num_workers=2, config=FAST_CONFIG
        ) as fleet:
            fleet.serve(make_requests(streams)[:4])
            stats = fleet.stats()
            assert stats.num_requests == 4
            assert len(stats.shards) >= 1
            exposition = fleet.render_prometheus()
        assert "fleet_frame_encode_seconds" in exposition
        assert 'side="server"' in exposition
        assert 'side="dispatcher"' in exposition
        assert "fleet_transport_bytes_sent_total" in exposition


class TestBackpressure:
    def test_server_side_nack_travels_end_to_end(self, net_store):
        """A saturated TCP shard NACKs; serve() retries until all complete.

        The server's window (1) is stricter than the dispatcher's (8), so
        pipelined submits overrun the *remote* bound and the rejection has
        to travel back as an OP_NACK frame — the dispatcher surfaces it as
        ShardOverloadedError and serve() honours the retry hint.
        """
        store, streams = net_store
        server = ShardServer(shard_spec(store, max_inflight=1)).start()
        try:
            host, port = server.address
            with ShardedFleetServer(
                store,
                config=FAST_CONFIG,
                shard_addresses=[f"{host}:{port}"],
                max_inflight=8,
            ) as fleet:
                requests = make_requests(streams, chunk=3)
                responses = fleet.serve(requests)
                assert len(responses) == len(requests)
                assert [r.request_id for r in responses] == [
                    r.request_id for r in requests
                ]
                stats = fleet.stats()
            assert stats.num_rejected > 0  # NACKs were actually exercised
        finally:
            server.stop()


class TestFailover:
    def test_ring_without_remaps_about_one_nth(self):
        ring = ConsistentHashRing(4)
        resized = ring.without(2)
        keys = [f"building-{i}" for i in range(2000)]
        before = [ring.shard_for(k) for k in keys]
        after = [resized.shard_for(k) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        # Exactly the keys owned by the removed shard move (~1/4 of them).
        assert all(a != 2 for a in after)
        assert all(b == a for b, a in zip(before, after) if b != 2)
        assert 0.10 < moved / len(keys) < 0.45

    def test_sigkill_one_shard_serving_continues_bit_identical(
        self, net_store, reference_labels
    ):
        """Kill a TCP shard mid-traffic: the fleet fails over and the full
        request set still completes with labels bit-identical to the
        single-process server."""
        store, streams = net_store
        requests = make_requests(streams)
        with ShardedFleetServer(
            store,
            num_workers=3,
            config=FAST_CONFIG,
            shard_capacity=4,
            heartbeat_interval_s=0.1,
            heartbeat_miss_threshold=2,
        ) as fleet:
            # Warm every shard with the first few requests.
            fleet.serve(requests[:3])
            victim = fleet._shards[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            # The pipelined drain must complete every request despite the
            # kill: in-flight requests on the victim fail over and resubmit.
            responses = fleet.serve(requests)
            assert [r.request_id for r in responses] == [
                r.request_id for r in requests
            ]
            # Post-failover labels stay bit-identical to the single-process
            # server (sequential submits pin the batch composition).
            settled = serve_sequentially(fleet_submit(fleet), requests)
            assert label_tuples(settled) == reference_labels
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                events = [e for e in fleet.fleet_events() if e.kind == EVENT_SHARD_DOWN]
                if events:
                    break
                time.sleep(0.05)
            assert events, "shard death never produced a shard-down event"
            with fleet._ring_lock:
                assert victim.entry not in fleet._ring.entries
            assert fleet.running
        # The dead worker is reaped by stop() without hanging.

    def test_last_shard_down_raises_rather_than_spinning(self, net_store):
        store, streams = net_store
        with ShardedFleetServer(
            store,
            num_workers=1,
            config=FAST_CONFIG,
            heartbeat_interval_s=0.1,
            heartbeat_miss_threshold=2,
        ) as fleet:
            requests = make_requests(streams)[:1]
            fleet.serve(requests)
            os.kill(fleet._shards[0].process.pid, signal.SIGKILL)
            time.sleep(0.3)
            with pytest.raises((ShardDownError, RuntimeError)):
                fleet.serve(requests)

    def test_connect_mode_reconnects_after_server_restart(self, net_store):
        store, streams = net_store
        host = "127.0.0.1"
        # Pin a port so the restarted server is reachable at the same entry.
        probe = socket.socket()
        probe.bind((host, 0))
        port = probe.getsockname()[1]
        probe.close()
        server = ShardServer(shard_spec(store), host, port).start()
        requests = make_requests(streams)[:2]
        try:
            with ShardedFleetServer(
                store,
                config=FAST_CONFIG,
                shard_addresses=[f"{host}:{port}"],
                heartbeat_interval_s=0.1,
                heartbeat_miss_threshold=2,
            ) as fleet:
                fleet.serve(requests)
                server.stop()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and not fleet._shards[0].dead:
                    time.sleep(0.05)
                assert fleet._shards[0].dead
                server = ShardServer(shard_spec(store), host, port).start()
                deadline = time.monotonic() + 10.0
                recovered = ()
                while time.monotonic() < deadline:
                    recovered = [
                        e
                        for e in fleet.telemetry.events.snapshot()
                        if e.kind == EVENT_SHARD_RECOVERED
                    ]
                    if recovered:
                        break
                    time.sleep(0.1)
                assert recovered, "down shard never rejoined the ring"
                responses = fleet.serve(requests)
                assert len(responses) == len(requests)
        finally:
            server.stop()


class TestServerRobustness:
    def test_garbage_connection_does_not_kill_the_server(self, net_store):
        store, _ = net_store
        server = ShardServer(ShardSpec(str(store), config=FAST_CONFIG)).start()
        try:
            # A peer speaking not-the-protocol gets an error (or a close),
            # and the listener keeps serving well-formed peers.
            hostile = socket.create_connection(server.address, timeout=5.0)
            hostile.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            try:
                op, _, _ = recv_frame(hostile)
                assert op == OP_ERR
            except (EOFError, OSError, RuntimeError):
                pass  # closing without the courtesy ERR is also acceptable
            hostile.close()

            polite = socket.create_connection(server.address, timeout=5.0)
            polite.sendall(encode_frame(OP_PING, 5))
            op, seq, payload = recv_frame(polite)
            assert (op, seq) == (OP_PONG, 5)
            polite.close()
        finally:
            server.stop()

    def test_mid_frame_disconnect_leaves_server_healthy(self, net_store):
        store, _ = net_store
        server = ShardServer(ShardSpec(str(store), config=FAST_CONFIG)).start()
        try:
            for _ in range(3):
                rude = socket.create_connection(server.address, timeout=5.0)
                frame = encode_frame(OP_PING, 1, b"")
                # Oversized claim, then vanish mid-payload.
                rude.sendall(frame[:10])
                rude.close()
            polite = socket.create_connection(server.address, timeout=5.0)
            polite.sendall(encode_frame(OP_PING, 9))
            assert recv_frame(polite)[0] == OP_PONG
            polite.close()
        finally:
            server.stop()

    def test_worker_start_failure_reaches_fleet_start(self, net_store):
        """A local worker that cannot build its stack fails start() with
        its own error, not a bare "worker exited"."""
        store, _ = net_store
        fleet = ShardedFleetServer(
            store, num_workers=1, inner_workers=0, config=FAST_CONFIG
        )
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            fleet.start()
        assert not fleet.running


def label_frame(seq, request):
    """One pickled-record label frame, as the dispatcher sends it."""
    payload = pickle.dumps((request.building_id, tuple(request.records)))
    return encode_frame(OP_LABEL_PICKLE, seq, payload)


def read_answers(sock, count):
    """``{seq: (op, payload)}`` of ``count`` response frames, each seq once."""
    answers = {}
    for _ in range(count):
        op, seq, payload = recv_frame(sock)
        assert seq not in answers, f"seq {seq} answered twice"
        answers[seq] = (op, payload)
    return answers


class TestThreadedShardServer:
    def test_two_connections_share_one_inflight_window(self, net_store):
        """Two pipelining connections saturate one server-wide window.

        Every frame is answered exactly once, as labels or as a NACK; the
        window NACKs at ``max_inflight`` and its count never leaves
        ``[0, max_inflight]``; and only the accepted requests reach the
        inner server.
        """
        store, streams = net_store
        requests = make_requests(streams, chunk=3)
        server = ShardServer(shard_spec(store, max_inflight=2)).start()
        samples = []
        sampling = threading.Event()

        def sample_window():
            while not sampling.is_set():
                samples.append(server._inflight)

        sampler = threading.Thread(target=sample_window)
        sampler.start()
        try:
            clients = [socket.create_connection(server.address) for _ in range(2)]
            for client in clients:
                client.sendall(
                    b"".join(label_frame(seq, r) for seq, r in enumerate(requests))
                )
            answers = [read_answers(client, len(requests)) for client in clients]
            sampling.set()
            sampler.join()
            for client in clients:
                client.close()
            labeled = 0
            for per_client in answers:
                assert set(per_client) == set(range(len(requests)))
                for seq, (op, payload) in per_client.items():
                    assert op in (OP_OK_LABELS, OP_NACK)
                    if op == OP_OK_LABELS:
                        labeled += 1
                        assert [label.record_id for label in decode_labels(payload)] == [
                            record.record_id for record in requests[seq].records
                        ]
            nacked = 2 * len(requests) - labeled
            assert nacked > 0 and labeled > 0
            assert samples and min(samples) >= 0 and max(samples) <= 2
            assert server._inflight == 0
            stats = server._server.stats()
            assert stats.num_requests == labeled
            assert server.telemetry.metrics.snapshot().value(
                "fleet_transport_nacks_total", shard="0", side="server"
            ) == nacked
        finally:
            sampling.set()
            sampler.join()
            server.stop()

    def test_garbage_on_one_connection_leaves_another_labeling(self, net_store):
        store, streams = net_store
        requests = make_requests(streams)[:6]
        server = ShardServer(shard_spec(store)).start()
        try:
            polite = socket.create_connection(server.address, timeout=30.0)
            polite.sendall(label_frame(0, requests[0]))
            assert recv_frame(polite)[0] == OP_OK_LABELS

            hostile = socket.create_connection(server.address, timeout=30.0)
            hostile.sendall(b"XXXX" + bytes(64))
            assert recv_frame(hostile)[0] == OP_ERR
            with pytest.raises((EOFError, ConnectionResetError)):
                recv_frame(hostile)  # the framing violation closed it
            hostile.close()

            # A malformed payload inside an intact frame is answered with
            # OP_ERR and the connection lives on.
            polite.sendall(encode_frame(OP_LABEL_BATCH, 1, b"not a batch"))
            assert recv_frame(polite)[:2] == (OP_ERR, 1)
            polite.sendall(
                b"".join(label_frame(seq, r) for seq, r in enumerate(requests, 2))
            )
            answers = read_answers(polite, len(requests))
            assert set(answers) == set(range(2, 2 + len(requests)))
            assert all(op == OP_OK_LABELS for op, _ in answers.values())
            polite.close()
        finally:
            server.stop()

    def test_half_close_answers_every_accepted_request(self, net_store):
        """EOF after pipelined frames: every accepted label is answered."""
        store, streams = net_store
        requests = make_requests(streams)
        server = ShardServer(shard_spec(store), host=None).start()
        ours, theirs = socket.socketpair()
        serving = threading.Thread(target=server.serve_connection, args=(theirs,))
        serving.start()
        try:
            ours.sendall(b"".join(label_frame(seq, r) for seq, r in enumerate(requests)))
            ours.shutdown(socket.SHUT_WR)
            answers = read_answers(ours, len(requests))
            with pytest.raises(EOFError):
                recv_frame(ours)  # closed only after the last answer
            serving.join(timeout=60)
            assert not serving.is_alive()
            assert set(answers) == set(range(len(requests)))
            assert all(op == OP_OK_LABELS for op, _ in answers.values())
        finally:
            ours.close()
            server.stop()

    def test_fleet_stop_completes_labels_in_flight(self, net_store):
        store, streams = net_store
        requests = make_requests(streams) * 2
        fleet = ShardedFleetServer(store, num_workers=2, config=FAST_CONFIG).start()
        try:
            futures = [fleet_submit(fleet)(request) for request in requests]
        finally:
            fleet.stop()
        responses = [future.result(timeout=0) for future in futures]
        assert [response.request_id for response in responses] == [
            request.request_id for request in requests
        ]
        assert all(
            len(response.labels) == len(request.records)
            for response, request in zip(responses, requests)
        )
        exits = [e for e in fleet.telemetry.events.snapshot() if e.kind == "shard-exit"]
        assert len(exits) == 2
        assert all(e.details_dict["pending_failed"] == 0 for e in exits)

    def test_peer_that_stops_reading_is_dropped_not_the_shard(
        self, net_store, monkeypatch
    ):
        """A client that pipelines labels and never reads its answers.

        Its responses fill the socket until a write misses the send
        deadline; the server then drops that connection alone.  Another
        client still gets labels, and stop() returns promptly.
        """
        monkeypatch.setattr(netserver, "SEND_TIMEOUT_S", 0.5)
        store, streams = net_store
        request = make_requests(streams, chunk=8)[0]
        frame = label_frame(0, request)
        server = ShardServer(shard_spec(store)).start()
        rude = socket.socket()
        rude.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        rude.connect(server.address)
        dropped = threading.Event()

        def flood():
            try:
                while True:
                    rude.sendall(frame * 50)
            except OSError:
                dropped.set()

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        try:
            assert dropped.wait(timeout=60), "the non-reading peer was never dropped"
            polite = socket.create_connection(server.address, timeout=10.0)
            deadline = time.monotonic() + 30
            while True:
                polite.sendall(label_frame(1, request))
                op, seq, payload = recv_frame(polite)
                assert seq == 1 and op in (OP_OK_LABELS, OP_NACK)
                if op == OP_OK_LABELS or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert op == OP_OK_LABELS
            polite.close()
        finally:
            rude.close()
            stopping = threading.Thread(target=server.stop, daemon=True)
            stopping.start()
            stopping.join(timeout=30)
        assert not stopping.is_alive(), "stop() hung behind the non-reading peer"
        assert server._inflight == 0
