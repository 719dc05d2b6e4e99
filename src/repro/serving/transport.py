"""Binary wire protocol between the sharded dispatcher and its shards.

Every :class:`~repro.serving.netserver.ShardServer` speaks it, whether it
serves a socketpair to the dispatcher that forked it or a TCP listener on
another machine.  Pickle is slow on the hot label path and unsafe to
expose on a network port, so the data plane avoids it:

* **Framing** — every message is one length-prefixed frame::

      magic "FIS1" | version u8 | op u8 | reserved u16 | seq u64 | length u32
      payload (length bytes)

  Big-endian header, 20 bytes.  ``seq`` tags responses to their requests,
  so a connection can pipeline many requests and complete them out of
  order.  ``length`` is bounded by :data:`MAX_FRAME_BYTES`; anything
  larger — or a bad magic, unknown version, or unknown op — raises
  :class:`FrameError` without reading the payload.

* **Data plane (no pickle)** — label batches travel as
  :class:`_WireBatch` columns serialised column-by-column: each numeric
  array as a dtype/shape tag plus its raw little-endian bytes (8-byte
  aligned so the receiver can decode it as a zero-copy
  ``np.frombuffer`` view of the receive buffer), each string column as a
  length-table plus one concatenated UTF-8 blob.  Label responses travel
  the same way (:func:`encode_labels` / :func:`decode_labels`).  Decoding
  validates structural invariants (monotone ``indptr``, local-id bounds,
  consistent lengths) because a network peer, unlike a forked child, is
  untrusted.

* **Control plane (pickle)** — low-rate commands carrying rich
  dataclasses stay pickled inside ``OP_CONTROL`` / ``OP_OK_PICKLE``
  frames as ``(name, args)`` pairs, so new verbs never need a protocol
  bump.  The vocabulary both ends speak today:

  ======================  =====================================================
  verb                    meaning
  ======================  =====================================================
  ``stats``               ``(ServerStats, RegistryStats)`` snapshot pair
  ``drift``               one building's :class:`DriftSnapshot`
  ``refresh``             refresh the listed drifted buildings
  ``rollback``            roll the listed drifted buildings back a generation
  ``telemetry``           ``(MetricsSnapshot, events, drops)`` triple
  ``warm``                preload the listed buildings (membership changes and
                          replication followers warm before taking traffic)
  ``handoff_export``      a draining shard's portable per-building state
                          (buffered drift records + hot flags)
  ``handoff_import``      adopt a draining peer's exported state
  ======================  =====================================================

The dispatcher and :class:`~repro.serving.netserver.ShardServer` both build
on these helpers; neither side ever unpickles a data-plane frame.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.results import OnlineLabel
from repro.signals.batch import MacVocab, RecordBatch

#: Frame magic: any connection speaking something else fails on byte 4.
MAGIC = b"FIS1"

#: Bumped on incompatible frame-format changes; peers reject mismatches.
PROTOCOL_VERSION = 1

#: Hard cap on one frame's payload.  A single label batch of tens of
#: thousands of records fits in well under a megabyte; the cap exists so a
#: hostile or corrupt length prefix cannot make a peer allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: ``magic | version | op | reserved | seq | payload length``.
HEADER = struct.Struct(">4sBBHQI")
HEADER_SIZE = HEADER.size

# -- op codes -------------------------------------------------------------------

#: Request: binary :class:`_WireBatch` label payload (the data plane).
OP_LABEL_BATCH = 0x01
#: Request: pickled ``(building_id, records)`` label payload — the slow
#: path for tuple-of-record requests, which have no columnar form.
OP_LABEL_PICKLE = 0x02
#: Request: pickled ``(name, args)`` control command.
OP_CONTROL = 0x03
#: Request: liveness probe (heartbeat); empty payload.
OP_PING = 0x04

#: Response: binary label tuple for a label request.
OP_OK_LABELS = 0x11
#: Response: pickled control result.
OP_OK_PICKLE = 0x12
#: Response: pickled exception.
OP_ERR = 0x13
#: Response: shard saturated; payload is ``retry_after_s`` as a float64.
OP_NACK = 0x14
#: Response: liveness answer; payload is the server pid as a u64.
OP_PONG = 0x15

_KNOWN_OPS = frozenset(
    {
        OP_LABEL_BATCH,
        OP_LABEL_PICKLE,
        OP_CONTROL,
        OP_PING,
        OP_OK_LABELS,
        OP_OK_PICKLE,
        OP_ERR,
        OP_NACK,
        OP_PONG,
    }
)


class FrameError(RuntimeError):
    """A frame violated the protocol (bad magic/version/op/length/payload).

    Framing errors are not recoverable on a stream — once the byte stream
    is out of sync there is no way to find the next frame boundary — so
    both peers close the connection after raising (the server answers with
    one best-effort ``OP_ERR`` first).
    """

    def __init__(self, message: str, seq: Optional[int] = None) -> None:
        super().__init__(message)
        #: The request seq when the header parsed far enough to know it,
        #: letting the server address its closing ``OP_ERR`` frame.
        self.seq = seq


@dataclass(frozen=True)
class _WireBatch:
    """A :class:`RecordBatch` flattened for the wire, without its vocabulary.

    Pickling a batch directly would ship its whole (fleet-wide, append-only)
    :class:`MacVocab` with every request *and* hand each worker a fresh
    vocabulary object per request, thrashing the frozen encoders'
    per-vocabulary translation caches.  The wire form instead carries only
    the MAC strings the batch actually uses, as a dense local id space;
    :meth:`to_batch` re-interns them into one shard-wide vocabulary, so ids
    stay stable per worker and the encoder cache only ever extends.

    The frame codec (:func:`encode_label_batch`) writes the columns as raw
    array bytes.
    """

    record_ids: np.ndarray
    indptr: np.ndarray
    local_mac_ids: np.ndarray
    macs: Tuple[str, ...]
    rss: np.ndarray
    floors: np.ndarray
    positions: np.ndarray
    device_ids: np.ndarray
    timestamps: np.ndarray

    @classmethod
    def from_batch(cls, batch: RecordBatch) -> "_WireBatch":
        unique, local = np.unique(batch.mac_ids, return_inverse=True)
        # Index the vocabulary per unique id (O(batch)); macs_at would
        # materialise the whole fleet-wide MAC table per request, making
        # submit cost grow with cumulative vocabulary size.
        mac_of = batch.vocab.mac_of
        return cls(
            record_ids=batch.record_ids,
            indptr=batch.indptr,
            local_mac_ids=local.astype(np.int64),
            macs=tuple(mac_of(int(mac_id)) for mac_id in unique),
            rss=batch.rss,
            floors=batch.floors,
            positions=batch.positions,
            device_ids=batch.device_ids,
            timestamps=batch.timestamps,
        )

    def to_batch(self, vocab: MacVocab) -> RecordBatch:
        mac_ids = vocab.intern_many(self.macs)[self.local_mac_ids]
        # The columns are slices of a batch that was validated at
        # construction sender-side (and structurally checked by the frame
        # decoder on the TCP path), so the trusted assembly path applies.
        return RecordBatch._trusted(
            indptr=self.indptr,
            mac_ids=mac_ids,
            rss=self.rss,
            record_ids=self.record_ids,
            vocab=vocab,
            floors=self.floors,
            positions=self.positions,
            device_ids=self.device_ids,
            timestamps=self.timestamps,
        )

    def __len__(self) -> int:
        return int(self.record_ids.shape[0])


# -- framing --------------------------------------------------------------------


def encode_frame(op: int, seq: int, payload: bytes = b"") -> bytes:
    """One complete frame: header plus payload."""
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, op, 0, seq, len(payload)) + payload


def parse_header(header: bytes) -> Tuple[int, int, int]:
    """Validate a 20-byte header and return ``(op, seq, payload_length)``."""
    if len(header) != HEADER_SIZE:
        raise FrameError(f"short frame header: {len(header)} of {HEADER_SIZE} bytes")
    magic, version, op, _reserved, seq, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError(f"unsupported protocol version {version}", seq=seq)
    if op not in _KNOWN_OPS:
        raise FrameError(f"unknown frame op 0x{op:02x}", seq=seq)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {length} bytes exceeds cap {MAX_FRAME_BYTES}", seq=seq
        )
    return op, seq, length


def recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes from a blocking socket.

    Raises :class:`EOFError` when the peer closes before ``count`` bytes
    arrive — including a clean close at ``count`` bytes read = 0, which
    callers distinguish by asking for the header first.
    """
    if count == 0:
        return b""
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        chunk = sock.recv_into(view[received:], count - received)
        if chunk == 0:
            raise EOFError(
                f"connection closed after {received} of {count} expected bytes"
            )
        received += chunk
    return bytes(buffer)


def recv_frame(sock: socket.socket) -> Tuple[int, int, bytes]:
    """Read one complete frame from a blocking socket.

    Returns ``(op, seq, payload)``.  Raises :class:`FrameError` on protocol
    violations, :class:`EOFError` when the peer closes (mid-frame or
    between frames), and lets socket errors propagate.
    """
    op, seq, length = parse_header(recv_exactly(sock, HEADER_SIZE))
    return op, seq, recv_exactly(sock, length)


# -- payload primitives ---------------------------------------------------------

#: Array segments are aligned so ``np.frombuffer`` views land on
#: 8-byte boundaries (required for float64/int64 zero-copy views).
_ARRAY_ALIGN = 8

#: Length sentinel marking a ``None`` entry in a string column
#: (``device_ids`` is Optional per record).
_NONE_LENGTH = 0xFFFFFFFF

#: Wire dtype table.  Little-endian on the wire; the codes are stable
#: protocol constants, not numpy internals.
_WIRE_DTYPES: Tuple[np.dtype, ...] = (
    np.dtype("<i8"),
    np.dtype("<f8"),
    np.dtype("<u4"),
)
_CODE_BY_KIND = {(dtype.kind, dtype.itemsize): code for code, dtype in enumerate(_WIRE_DTYPES)}

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_U64 = struct.Struct(">Q")


class _PayloadWriter:
    """Accumulates payload segments, tracking size for alignment padding."""

    __slots__ = ("_parts", "_size")

    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self._size = 0

    def put(self, data) -> None:
        self._parts.append(data)
        self._size += len(data)

    def pad(self, align: int = _ARRAY_ALIGN) -> None:
        remainder = self._size % align
        if remainder:
            self.put(b"\x00" * (align - remainder))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


def _aligned(offset: int, align: int = _ARRAY_ALIGN) -> int:
    remainder = offset % align
    return offset if not remainder else offset + (align - remainder)


def pack_array(writer: _PayloadWriter, array: np.ndarray) -> None:
    """Append one array segment: dtype code, ndim, shape, aligned raw bytes."""
    code = _CODE_BY_KIND.get((array.dtype.kind, array.dtype.itemsize))
    if code is None:
        raise TypeError(f"array dtype {array.dtype} has no wire encoding")
    wire_dtype = _WIRE_DTYPES[code]
    array = np.ascontiguousarray(array, dtype=wire_dtype)
    writer.put(struct.pack(">BB", code, array.ndim))
    writer.put(struct.pack(f">{array.ndim}I", *array.shape))
    writer.pad()
    # Zero-copy on the send side too: a memoryview over the (possibly
    # read-only) array buffer joins into the payload without a .tobytes()
    # copy per column.
    writer.put(array.data.cast("B"))


def unpack_array(payload: bytes, offset: int) -> Tuple[np.ndarray, int]:
    """Decode one array segment as a zero-copy view; return it and the next offset."""
    if offset + 2 > len(payload):
        raise FrameError("truncated array header")
    code, ndim = struct.unpack_from(">BB", payload, offset)
    offset += 2
    if code >= len(_WIRE_DTYPES):
        raise FrameError(f"unknown wire dtype code {code}")
    if ndim > 2:
        raise FrameError(f"unsupported array rank {ndim}")
    if offset + 4 * ndim > len(payload):
        raise FrameError("truncated array shape")
    shape = struct.unpack_from(f">{ndim}I", payload, offset)
    offset = _aligned(offset + 4 * ndim)
    dtype = _WIRE_DTYPES[code]
    count = 1
    for dim in shape:
        count *= dim
    nbytes = count * dtype.itemsize
    if offset + nbytes > len(payload):
        raise FrameError(
            f"array of {nbytes} bytes overruns payload of {len(payload)} bytes"
        )
    array = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    return array.reshape(shape), offset + nbytes


def pack_strings(writer: _PayloadWriter, strings: Sequence[Optional[str]]) -> None:
    """Append one string column: u32 length table plus one UTF-8 blob.

    ``None`` entries (absent ``device_ids``) are marked by the
    :data:`_NONE_LENGTH` sentinel in the length table.
    """
    encoded = [None if s is None else s.encode("utf-8") for s in strings]
    lengths = np.fromiter(
        (_NONE_LENGTH if e is None else len(e) for e in encoded),
        dtype="<u4",
        count=len(encoded),
    )
    pack_array(writer, lengths)
    writer.put(b"".join(e for e in encoded if e is not None))


def unpack_strings(payload: bytes, offset: int) -> Tuple[List[Optional[str]], int]:
    """Decode one string column; returns the list and the next offset."""
    lengths, offset = unpack_array(payload, offset)
    if lengths.ndim != 1 or lengths.dtype.kind != "u":
        raise FrameError("string length table must be a 1-D u4 column")
    strings: List[Optional[str]] = []
    for length in lengths:
        if length == _NONE_LENGTH:
            strings.append(None)
            continue
        length = int(length)
        if offset + length > len(payload):
            raise FrameError("string blob overruns payload")
        try:
            strings.append(payload[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as error:
            raise FrameError(f"invalid UTF-8 in string column: {error}") from None
        offset += length
    return strings, offset


# -- data-plane codecs ----------------------------------------------------------


def encode_label_batch(building_id: str, wire: _WireBatch) -> bytes:
    """Payload of one ``OP_LABEL_BATCH`` frame."""
    writer = _PayloadWriter()
    pack_strings(writer, [building_id])
    pack_strings(writer, wire.macs)
    pack_strings(writer, list(wire.record_ids))
    pack_strings(writer, list(wire.device_ids))
    writer.pad()
    pack_array(writer, wire.indptr)
    pack_array(writer, wire.local_mac_ids)
    pack_array(writer, wire.rss)
    pack_array(writer, wire.floors)
    pack_array(writer, wire.positions)
    pack_array(writer, wire.timestamps)
    return writer.getvalue()


def decode_label_batch(payload: bytes) -> Tuple[str, _WireBatch]:
    """Decode an ``OP_LABEL_BATCH`` payload into ``(building_id, _WireBatch)``.

    Numeric columns come back as read-only ``np.frombuffer`` views of
    ``payload`` — no copies on the data plane.  A peer on a listener is
    untrusted, so structural invariants are validated here: violations
    raise :class:`FrameError` instead of corrupting the shard's label
    pipeline.
    """
    offset = 0
    head, offset = unpack_strings(payload, offset)
    if len(head) != 1 or head[0] is None:
        raise FrameError("label batch must carry exactly one building id")
    building_id = head[0]
    macs, offset = unpack_strings(payload, offset)
    if any(mac is None for mac in macs):
        raise FrameError("MAC column cannot contain null entries")
    record_ids, offset = unpack_strings(payload, offset)
    if any(record_id is None for record_id in record_ids):
        raise FrameError("record id column cannot contain null entries")
    device_ids, offset = unpack_strings(payload, offset)
    offset = _aligned(offset)
    indptr, offset = unpack_array(payload, offset)
    local_mac_ids, offset = unpack_array(payload, offset)
    rss, offset = unpack_array(payload, offset)
    floors, offset = unpack_array(payload, offset)
    positions, offset = unpack_array(payload, offset)
    timestamps, offset = unpack_array(payload, offset)

    num_records = len(record_ids)
    if num_records == 0:
        raise FrameError("label batch contains no records")
    if indptr.ndim != 1 or indptr.shape[0] != num_records + 1:
        raise FrameError("indptr length does not match record count")
    if int(indptr[0]) != 0 or np.any(np.diff(indptr) <= 0):
        raise FrameError("indptr must start at zero and strictly increase")
    num_readings = int(indptr[-1])
    if local_mac_ids.ndim != 1 or local_mac_ids.shape[0] != num_readings:
        raise FrameError("local mac id column does not match indptr")
    if rss.ndim != 1 or rss.shape[0] != num_readings:
        raise FrameError("rss column does not match indptr")
    if num_readings and (
        int(local_mac_ids.min()) < 0 or int(local_mac_ids.max()) >= len(macs)
    ):
        raise FrameError("local mac ids fall outside the MAC column")
    if floors.ndim != 1 or floors.shape[0] != num_records:
        raise FrameError("floor column does not match record count")
    if positions.shape != (num_records, 2):
        raise FrameError("position column must have shape (num_records, 2)")
    if timestamps.ndim != 1 or timestamps.shape[0] != num_records:
        raise FrameError("timestamp column does not match record count")
    if len(device_ids) != num_records:
        raise FrameError("device id column does not match record count")

    wire = _WireBatch(
        record_ids=np.asarray(record_ids, dtype=object),
        indptr=indptr,
        local_mac_ids=local_mac_ids,
        macs=tuple(macs),
        rss=rss,
        floors=floors,
        positions=positions,
        device_ids=np.asarray(device_ids, dtype=object),
        timestamps=timestamps,
    )
    return building_id, wire


def encode_labels(labels: Sequence[OnlineLabel]) -> bytes:
    """Payload of one ``OP_OK_LABELS`` frame."""
    writer = _PayloadWriter()
    pack_strings(writer, [label.record_id for label in labels])
    writer.pad()
    pack_array(
        writer,
        np.fromiter((label.floor for label in labels), dtype="<i8", count=len(labels)),
    )
    pack_array(
        writer,
        np.fromiter((label.confidence for label in labels), dtype="<f8", count=len(labels)),
    )
    pack_array(
        writer,
        np.fromiter(
            (label.known_mac_fraction for label in labels), dtype="<f8", count=len(labels)
        ),
    )
    return writer.getvalue()


def decode_labels(payload: bytes) -> Tuple[OnlineLabel, ...]:
    """Decode an ``OP_OK_LABELS`` payload back into :class:`OnlineLabel` rows."""
    offset = 0
    record_ids, offset = unpack_strings(payload, offset)
    offset = _aligned(offset)
    floors, offset = unpack_array(payload, offset)
    confidences, offset = unpack_array(payload, offset)
    fractions, offset = unpack_array(payload, offset)
    count = len(record_ids)
    if any(record_id is None for record_id in record_ids):
        raise FrameError("label record ids cannot be null")
    if floors.shape != (count,) or confidences.shape != (count,) or fractions.shape != (count,):
        raise FrameError("label columns disagree on record count")
    if floors.dtype.kind != "i" or confidences.dtype.kind != "f" or fractions.dtype.kind != "f":
        raise FrameError("label columns must be i8 floors and f8 scores")
    return tuple(
        OnlineLabel(
            record_id=record_ids[i],
            floor=int(floors[i]),
            confidence=float(confidences[i]),
            known_mac_fraction=float(fractions[i]),
        )
        for i in range(count)
    )


# -- small fixed payloads -------------------------------------------------------


def encode_nack(retry_after_s: float) -> bytes:
    return _F64.pack(retry_after_s)


def decode_nack(payload: bytes) -> float:
    if len(payload) != _F64.size:
        raise FrameError("NACK payload must be one float64")
    return _F64.unpack(payload)[0]


def encode_pong(pid: int) -> bytes:
    return _U64.pack(pid)


def decode_pong(payload: bytes) -> int:
    if len(payload) != _U64.size:
        raise FrameError("PONG payload must be one u64")
    return _U64.unpack(payload)[0]


def encode_control(name: str, args: tuple) -> bytes:
    return pickle.dumps((name, args), protocol=pickle.HIGHEST_PROTOCOL)


def decode_control(payload: bytes) -> Tuple[str, tuple]:
    try:
        name, args = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - any unpickling failure
        raise FrameError(f"malformed control payload: {error}") from None
    if not isinstance(name, str) or not isinstance(args, tuple):
        raise FrameError("control payload must be a (name, args) pair")
    return name, args
