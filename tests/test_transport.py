"""Binary frame protocol: round trips, hostile inputs, and fuzzing.

The transport is the first layer of this codebase exposed to untrusted
peers, so beyond round-trip fidelity these tests drive truncated, corrupt,
oversized, wrong-magic and wrong-version frames at both the header parser
and the payload codecs — every one must fail with a clean
:class:`FrameError` / :class:`EOFError`, never a hang, crash, or silent
misparse.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.serving.results import OnlineLabel
from repro.serving.transport import (
    HEADER,
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_BYTES,
    OP_LABEL_BATCH,
    OP_NACK,
    OP_PING,
    OP_PONG,
    PROTOCOL_VERSION,
    FrameError,
    _WireBatch,
    decode_control,
    decode_label_batch,
    decode_labels,
    decode_nack,
    decode_pong,
    encode_control,
    encode_frame,
    encode_label_batch,
    encode_labels,
    encode_nack,
    encode_pong,
    parse_header,
    recv_frame,
)
from repro.signals.batch import MacVocab, RecordBatch
from repro.signals.record import SignalRecord


def make_records():
    return (
        SignalRecord(
            "r0",
            {"aa:aa": -40.0, "bb:bb": -55.5},
            floor=2,
            position=(1.0, 2.0),
            device_id="phone-1",
            timestamp=10.5,
        ),
        SignalRecord("r1", {"bb:bb": -70.25}),
        SignalRecord("r2", {"cc:cc": -80.0, "aa:aa": -42.0, "dd:dd": -90.0}),
    )


def make_wire_batch():
    batch = RecordBatch.from_records(make_records())
    return _WireBatch.from_batch(batch)


class TestRoundTrips:
    def test_frame_header_round_trip(self):
        frame = encode_frame(OP_PING, 42, b"xyz")
        op, seq, length = parse_header(frame[:HEADER_SIZE])
        assert (op, seq, length) == (OP_PING, 42, 3)
        assert frame[HEADER_SIZE:] == b"xyz"

    def test_label_batch_round_trip_preserves_every_column(self):
        wire = make_wire_batch()
        payload = encode_label_batch("building-a", wire)
        building_id, decoded = decode_label_batch(payload)
        assert building_id == "building-a"
        assert decoded.macs == wire.macs
        assert list(decoded.record_ids) == list(wire.record_ids)
        assert list(decoded.device_ids) == list(wire.device_ids)  # includes Nones
        assert np.array_equal(decoded.indptr, wire.indptr)
        assert np.array_equal(decoded.local_mac_ids, wire.local_mac_ids)
        assert np.array_equal(decoded.rss, wire.rss)
        assert np.array_equal(decoded.floors, wire.floors)
        assert np.array_equal(
            np.nan_to_num(decoded.positions), np.nan_to_num(wire.positions)
        )
        assert np.array_equal(
            np.nan_to_num(decoded.timestamps), np.nan_to_num(wire.timestamps)
        )

    def test_decoded_batch_reassembles_identically(self):
        records = make_records()
        original = RecordBatch.from_records(records)
        payload = encode_label_batch("b", _WireBatch.from_batch(original))
        _, decoded = decode_label_batch(payload)
        rebuilt = decoded.to_batch(MacVocab())
        assert list(rebuilt.record_ids) == list(original.record_ids)
        assert np.array_equal(rebuilt.indptr, original.indptr)
        assert np.array_equal(rebuilt.rss, original.rss)
        for rebuilt_record, record in zip(rebuilt.to_records(), records):
            assert rebuilt_record.readings == record.readings

    def test_decode_is_zero_copy_for_numeric_columns(self):
        payload = encode_label_batch("b", make_wire_batch())
        _, decoded = decode_label_batch(payload)
        # A frombuffer view of the payload owns no data of its own.
        assert decoded.rss.base is not None
        assert not decoded.rss.flags.owndata
        assert not decoded.rss.flags.writeable

    def test_labels_round_trip(self):
        labels = (
            OnlineLabel("r0", 3, 0.875, 1.0),
            OnlineLabel("r1", -1, 0.0, 0.25),
        )
        assert decode_labels(encode_labels(labels)) == labels

    def test_small_payload_round_trips(self):
        assert decode_nack(encode_nack(0.125)) == 0.125
        assert decode_pong(encode_pong(12345)) == 12345
        assert decode_control(encode_control("refresh", (["b1"],))) == (
            "refresh",
            (["b1"],),
        )


class TestHostileHeaders:
    def test_wrong_magic_rejected(self):
        frame = bytearray(encode_frame(OP_PING, 0))
        frame[:4] = b"HTTP"
        with pytest.raises(FrameError, match="magic"):
            parse_header(bytes(frame[:HEADER_SIZE]))

    def test_wrong_version_rejected(self):
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, OP_PING, 0, 7, 0)
        with pytest.raises(FrameError, match="version") as excinfo:
            parse_header(header)
        assert excinfo.value.seq == 7  # parsed far enough to address the error

    def test_unknown_op_rejected(self):
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 0x7F, 0, 0, 0)
        with pytest.raises(FrameError, match="unknown frame op"):
            parse_header(header)

    def test_oversized_length_rejected_without_allocation(self):
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION, OP_PING, 0, 0, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="exceeds cap"):
            parse_header(header)

    def test_short_header_rejected(self):
        with pytest.raises(FrameError, match="short frame header"):
            parse_header(b"FIS1\x01")


class TestHostilePayloads:
    def test_garbage_payload_rejected(self):
        with pytest.raises(FrameError):
            decode_label_batch(b"\x00" * 64)

    def test_mistyped_columns_rejected(self):
        """A float string-length table or label column is a FrameError.

        ``int()`` of a NaN length used to escape as a ``ValueError``.
        """
        nan_lengths = struct.pack(">BBI", 1, 1, 1) + b"\x00\x00"
        nan_lengths += struct.pack("<d", float("nan")) + b"x" * 64
        with pytest.raises(FrameError):
            decode_labels(nan_lengths)
        with pytest.raises(FrameError):
            decode_label_batch(nan_lengths)
        valid = encode_labels([OnlineLabel("r", 1, 0.5, 1.0)])
        int_head, float_head = struct.pack(">BBI", 0, 1, 1), struct.pack(">BBI", 1, 1, 1)
        with pytest.raises(FrameError):
            decode_labels(valid.replace(int_head, float_head))

    def test_truncated_batch_rejected(self):
        payload = encode_label_batch("b", make_wire_batch())
        for cut in (1, len(payload) // 3, len(payload) - 1):
            with pytest.raises(FrameError):
                decode_label_batch(payload[:cut])

    def test_nonmonotone_indptr_rejected(self):
        wire = make_wire_batch()
        broken = _WireBatch(
            record_ids=wire.record_ids,
            indptr=np.array([0, 2, 1, 6], dtype=np.int64),
            local_mac_ids=wire.local_mac_ids,
            macs=wire.macs,
            rss=wire.rss,
            floors=wire.floors,
            positions=wire.positions,
            device_ids=wire.device_ids,
            timestamps=wire.timestamps,
        )
        with pytest.raises(FrameError, match="indptr"):
            decode_label_batch(encode_label_batch("b", broken))

    def test_out_of_range_mac_ids_rejected(self):
        wire = make_wire_batch()
        broken = _WireBatch(
            record_ids=wire.record_ids,
            indptr=wire.indptr,
            local_mac_ids=wire.local_mac_ids + len(wire.macs),
            macs=wire.macs,
            rss=wire.rss,
            floors=wire.floors,
            positions=wire.positions,
            device_ids=wire.device_ids,
            timestamps=wire.timestamps,
        )
        with pytest.raises(FrameError, match="MAC column"):
            decode_label_batch(encode_label_batch("b", broken))

    def test_invalid_utf8_rejected(self):
        payload = bytearray(encode_label_batch("building-a", make_wire_batch()))
        index = bytes(payload).index(b"building-a")
        payload[index : index + 2] = b"\xff\xfe"
        with pytest.raises(FrameError):
            decode_label_batch(bytes(payload))

    def test_malformed_control_rejected(self):
        with pytest.raises(FrameError, match="control payload"):
            decode_control(b"not a pickle")
        import pickle

        with pytest.raises(FrameError, match="name, args"):
            decode_control(pickle.dumps(("refresh", "not-a-tuple")))

    def test_wrong_size_nack_and_pong_rejected(self):
        with pytest.raises(FrameError):
            decode_nack(b"\x00" * 4)
        with pytest.raises(FrameError):
            decode_pong(b"\x00" * 12)


class TestSocketFraming:
    @staticmethod
    def _pair():
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    def test_frame_round_trip_over_socket(self):
        left, right = self._pair()
        try:
            payload = encode_label_batch("b", make_wire_batch())
            left.sendall(encode_frame(OP_LABEL_BATCH, 9, payload))
            op, seq, received = recv_frame(right)
            assert (op, seq) == (OP_LABEL_BATCH, 9)
            assert received == payload
        finally:
            left.close()
            right.close()

    def test_mid_frame_drop_raises_eof_not_hang(self):
        left, right = self._pair()
        try:
            frame = encode_frame(OP_LABEL_BATCH, 1, b"x" * 1000)
            left.sendall(frame[: len(frame) // 2])
            left.close()
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()

    def test_clean_close_between_frames_raises_eof(self):
        left, right = self._pair()
        try:
            left.sendall(encode_frame(OP_PING, 0))
            left.close()
            assert recv_frame(right)[0] == OP_PING
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()

    def test_pipelined_frames_keep_their_seqs(self):
        left, right = self._pair()
        try:
            for seq in range(20):
                left.sendall(encode_frame(OP_NACK, seq, encode_nack(float(seq))))
            for seq in range(20):
                op, got_seq, payload = recv_frame(right)
                assert (op, got_seq, decode_nack(payload)) == (OP_NACK, seq, float(seq))
        finally:
            left.close()
            right.close()


class TestFuzz:
    def test_random_corruption_never_hangs_or_crashes(self):
        """~1k random corruptions of a valid frame: clean errors only.

        Each trial flips bytes, truncates, or extends a valid encoded
        frame, then runs the same parse path a server connection does.
        Any outcome is acceptable except a crash: either it decodes (the
        corruption missed everything load-bearing) or raises FrameError.
        """
        rng = np.random.default_rng(0xF15)
        base = encode_frame(
            OP_LABEL_BATCH, 3, encode_label_batch("b", make_wire_batch())
        )
        decoded = failed = 0
        for trial in range(1000):
            blob = bytearray(base)
            mode = trial % 3
            if mode == 0:  # flip 1-8 random bytes
                for _ in range(int(rng.integers(1, 9))):
                    blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            elif mode == 1:  # truncate
                blob = blob[: int(rng.integers(0, len(blob)))]
            else:  # flip bytes then truncate
                for _ in range(int(rng.integers(1, 5))):
                    blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
                blob = blob[: int(rng.integers(HEADER_SIZE, len(blob) + 1))]
            try:
                if len(blob) < HEADER_SIZE:
                    raise FrameError("short header")
                op, seq, length = parse_header(bytes(blob[:HEADER_SIZE]))
                payload = bytes(blob[HEADER_SIZE : HEADER_SIZE + length])
                if len(payload) != length:
                    raise FrameError("truncated payload")
                if op == OP_LABEL_BATCH:
                    decode_label_batch(payload)
                decoded += 1
            except FrameError:
                failed += 1
        assert decoded + failed == 1000
        assert failed > 0  # the corruptions were not all harmless

    def test_fuzzed_string_tables_never_crash(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            blob = rng.integers(0, 256, int(rng.integers(0, 200)), dtype=np.uint8)
            try:
                decode_labels(blob.tobytes())
            except FrameError:
                pass
