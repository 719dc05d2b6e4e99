"""The flat array bundle: named NumPy arrays packed into one buffer.

This is the layout of an artifact directory's ``arrays.bin``
(:mod:`repro.serving.artifacts`), built so that loading one never decodes
anything:

* an 8-byte magic;
* an 8-byte little-endian header length;
* a UTF-8 JSON header ``{"arrays": [{"name", "dtype", "shape", "offset"}]}``;
* the C-ordered array payloads, each on a 64-byte boundary (offsets count
  from the first boundary after the header).

A bundle ends at its last payload byte, so a truncated copy always leaves
some payload past the end.  :func:`bundle_views` validates every header
field against the buffer before building read-only ``np.frombuffer`` views
over it — in serving, a read-only ``mmap`` of the file.  Object dtypes are
refused on both sides, so nothing is ever unpickled.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Mapping

import numpy as np

__all__ = ["BundleError", "MAGIC", "bundle_views", "pack_bundle"]

#: First eight bytes of every bundle.
MAGIC = b"FISARR1\x00"

#: Array payloads start on 64-byte boundaries (cache-line aligned, and
#: comfortably aligned for every dtype NumPy ships).
_ALIGN = 64

#: Magic plus the header-length field.
_PREFIX = len(MAGIC) + 8


class BundleError(ValueError):
    """A buffer is not a well-formed array bundle."""


def _aligned(size: int) -> int:
    return -(-size // _ALIGN) * _ALIGN


def pack_bundle(arrays: Mapping[str, np.ndarray]) -> bytearray:
    """Pack ``arrays`` into one bundle buffer (see the module docstring)."""
    # asarray(order="C") rather than ascontiguousarray: the latter
    # silently promotes 0-d arrays (the save token) to 1-d.
    contiguous = {name: np.asarray(array, order="C") for name, array in arrays.items()}
    entries = []
    end = 0  # relative to the start of the payload area
    for name, array in contiguous.items():
        if array.dtype.hasobject:
            raise BundleError(f"array {name!r} has an object dtype and cannot be bundled")
        offset = _aligned(end)
        entries.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape), "offset": offset}
        )
        end = offset + array.nbytes
    header = json.dumps({"arrays": entries}).encode("utf-8")
    payload_start = _aligned(_PREFIX + len(header))
    buffer = bytearray(payload_start + end)
    buffer[: len(MAGIC)] = MAGIC
    buffer[len(MAGIC) : _PREFIX] = len(header).to_bytes(8, "little")
    buffer[_PREFIX : _PREFIX + len(header)] = header
    for entry, array in zip(entries, contiguous.values()):
        target = np.frombuffer(
            buffer,
            dtype=array.dtype,
            count=array.size,
            offset=payload_start + entry["offset"],
        ).reshape(array.shape)
        np.copyto(target, array, casting="no")
    return buffer


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def bundle_views(buffer) -> Dict[str, np.ndarray]:
    """Read-only array views over one bundle held in ``buffer``.

    ``buffer`` is any one-dimensional byte buffer: ``bytes``, a ``uint8``
    array or an ``mmap.mmap``.  The views keep it alive.  Raises
    :class:`BundleError` on a bad magic, a header length past the end, an
    unparseable header, an object dtype, a negative shape or offset, or a
    payload past the end of the buffer.
    """
    with memoryview(buffer) as view:
        size = view.nbytes
        if size < _PREFIX or view[: len(MAGIC)] != MAGIC:
            raise BundleError("bad magic: not an array bundle")
        header_length = int.from_bytes(view[len(MAGIC) : _PREFIX], "little")
        if header_length > size - _PREFIX:
            raise BundleError(f"header length {header_length} runs past the end")
        try:
            header = json.loads(bytes(view[_PREFIX : _PREFIX + header_length]))
            entries = [(e["name"], e["dtype"], e["shape"], e["offset"]) for e in header["arrays"]]
        except (ValueError, RecursionError, TypeError, KeyError) as error:
            raise BundleError(f"corrupt header: {error!r}") from None
    payload_start = _aligned(_PREFIX + header_length)
    arrays: Dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in entries:
        if not (isinstance(name, str) and isinstance(dtype, str) and isinstance(shape, list)):
            raise BundleError(f"corrupt header entry for array {name!r}")
        try:
            dtype = np.dtype(dtype)
        except (TypeError, ValueError) as error:
            raise BundleError(f"array {name!r} has an unknown dtype: {error}") from None
        if dtype.hasobject:
            raise BundleError(f"array {name!r} has an object dtype")
        if not all(_is_count(value) for value in (*shape, offset)):
            raise BundleError(f"array {name!r} has an invalid shape/offset {shape}/{offset}")
        count = math.prod(shape)
        start = payload_start + offset
        if start + count * dtype.itemsize > size:
            raise BundleError(f"payload of array {name!r} runs past the end")
        try:
            array = np.frombuffer(buffer, dtype=dtype, count=count, offset=start).reshape(shape)
        except ValueError as error:  # zero itemsize, or a subarray dtype
            raise BundleError(f"array {name!r} cannot be viewed: {error}") from None
        array.flags.writeable = False
        arrays[name] = array
    return arrays
