"""Named shared-memory bundles of immutable NumPy arrays.

The sharded fleet server (:mod:`repro.serving.sharded`) runs N worker
processes over one artifact store.  ``load_artifacts(..., mmap=True)``
lets siblings share the *page-cache* copy of each ``arrays.bin``;
:class:`SharedArrayStore` shares one copy through POSIX shared memory
(:mod:`multiprocessing.shared_memory`) instead: the first process to load
an artifact *publishes* the file's bytes unchanged into one named segment,
and every later process — sibling shard workers, a dispatcher-side warmup
— *attaches* read-only views of the same physical pages.  Segments use
the artifact file's own layout (:mod:`repro.serving.bundle`), so neither
side decodes anything.  Bundles are keyed by caller-chosen names (the
artifact loader keys them by building directory + save token, so a
re-saved model naturally publishes a fresh bundle instead of aliasing a
stale one).

Hygiene is explicit because shared memory outlives processes:

* attach/detach are **refcounted per process**; detaching to zero unmaps
  the segment locally (the segment itself survives for other processes);
* :meth:`close` unmaps everything this store attached and **unlinks** the
  segments it created (opt-out via ``unlink_on_close=False`` for handoff
  patterns where a reader outlives the publisher);
* every live store is closed by an ``atexit`` hook, so a normally-exiting
  worker never strands its segments;
* :meth:`sweep` removes leftover segments under a prefix — the parent-side
  backstop for workers that died without running ``atexit`` (kill -9,
  segfault).

A publisher copies the bundle's magic *last*, so a reader racing it can
spin until the segment is complete.

CPython 3.11 registers every ``SharedMemory`` handle — attach-only ones
included — with a resource tracker (bpo-38119).  Under ``spawn`` each
attacher's own tracker would unlink a live segment the moment that worker
exits; under ``fork`` all processes share one tracker, so any balanced-
looking unregister from an attacher silently deletes the creator's entry
and later unlinks spray ``KeyError`` noise from the tracker process.  This
store therefore opts out entirely: every handle is unregistered right
after construction, unlinks bypass the tracker, and crash hygiene is
handled explicitly by :meth:`sweep`.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import time
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serving.bundle import MAGIC, bundle_views

__all__ = ["SharedArrayStore", "SharedStoreError"]

#: How long an attacher waits for a concurrent publisher to finish writing
#: before declaring the segment abandoned.
_READY_TIMEOUT_S = 30.0

#: Where POSIX shared memory segments live on Linux; used only by the
#: crash-sweep backstop, which degrades to a no-op elsewhere.
_SHM_DIR = "/dev/shm"


class SharedStoreError(RuntimeError):
    """A shared-memory bundle is missing, torn, or incompatible."""


@dataclass
class _Bundle:
    """One attached segment: its handle, views, and local refcount."""

    segment: shared_memory.SharedMemory
    arrays: Dict[str, np.ndarray]
    refcount: int
    owned: bool  # this process created (and is responsible for unlinking) it


_LIVE_STORES: "weakref.WeakSet[SharedArrayStore]" = weakref.WeakSet()


@atexit.register
def _close_live_stores() -> None:
    for store in list(_LIVE_STORES):
        store.close()


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Remove ``segment`` from the process's resource tracker (see module doc)."""
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def _unlink_quietly(segment: shared_memory.SharedMemory) -> None:
    """Unlink without the tracker round-trip ``SharedMemory.unlink`` does.

    The handle was untracked at construction, so the stock ``unlink()``
    would send the tracker an unregister for a name it never saw — which
    the tracker process reports as a ``KeyError`` at exit.
    """
    try:
        from _posixshmem import shm_unlink
    except ImportError:  # pragma: no cover - non-POSIX platform
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        return
    try:
        shm_unlink(segment._name)
    except FileNotFoundError:
        pass  # a sibling or sweep got there first


def _segment_name(prefix: str, bundle: str) -> str:
    """Deterministic, short segment name for a bundle.

    Hashing keeps names within the portable POSIX limit however long the
    bundle key is, while staying stable across processes (blake2b is
    unsalted) so every worker resolves a bundle to the same segment.
    """
    digest = hashlib.blake2b(bundle.encode("utf-8"), digest_size=10).hexdigest()
    return f"{prefix}-{digest}"


class SharedArrayStore:
    """Publish/attach named bundles of arrays in POSIX shared memory.

    Parameters
    ----------
    prefix:
        Namespace for every segment this store touches.  Stores that must
        share bundles across processes (e.g. all workers of one fleet) must
        agree on the prefix; unrelated fleets should use distinct prefixes
        so :meth:`sweep` never reaps a neighbour's segments.
    unlink_on_close:
        Whether :meth:`close` unlinks the segments this store *created*
        (default).  Pass ``False`` for publish-then-exit handoff patterns
        where readers outlive the publisher — the segments then survive
        until an explicit :meth:`sweep`.
    """

    def __init__(self, prefix: str = "fisone", unlink_on_close: bool = True) -> None:
        if not prefix or "/" in prefix:
            raise ValueError("prefix must be a non-empty string without '/'")
        self.prefix = prefix
        self.unlink_on_close = unlink_on_close
        self._bundles: Dict[str, _Bundle] = {}
        self._closed = False
        _LIVE_STORES.add(self)

    def _check_open(self) -> None:
        if self._closed:
            raise SharedStoreError("this SharedArrayStore is closed")

    # -- publishing ------------------------------------------------------------

    def publish(self, bundle: str, data: bytes) -> Dict[str, np.ndarray]:
        """Copy ``data``, a packed :mod:`repro.serving.bundle` (such as an
        artifact's ``arrays.bin``), into a new named segment and attach.

        A malformed bundle raises :class:`~repro.serving.bundle.BundleError`
        and is never published.  Returns read-only views over the shared
        pages (refcount 1).  When a segment of this name already exists —
        published by a sibling, or racing this call — the existing bundle is
        attached instead, so concurrent publishers of the same bundle
        converge on one physical copy no matter who wins the create race.
        """
        self._check_open()
        existing = self._bundles.get(bundle)
        if existing is not None:
            existing.refcount += 1
            return existing.arrays
        bundle_views(data)  # validate before anything is shared
        name = _segment_name(self.prefix, bundle)
        with memoryview(data) as source:
            try:
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=source.nbytes
                )
            except FileExistsError:
                return self._attach_existing(bundle, name)
            _untrack(segment)
            # The magic goes in last: attachers treat its absence as "publish
            # in progress" and spin, so they can never observe a torn bundle.
            segment.buf[len(MAGIC) : source.nbytes] = source[len(MAGIC) :]
            segment.buf[: len(MAGIC)] = source[: len(MAGIC)]
        views = bundle_views(segment.buf)
        self._bundles[bundle] = _Bundle(
            segment=segment, arrays=views, refcount=1, owned=True
        )
        return views

    def get_or_publish(
        self, bundle: str, producer: Callable[[], bytes]
    ) -> Dict[str, np.ndarray]:
        """Attach ``bundle`` if it exists anywhere, else produce and publish.

        ``producer`` returns the packed bundle; it runs only on the first
        load fleet-wide, and every other process gets views.
        """
        attached = self.attach(bundle)
        if attached is not None:
            return attached
        return self.publish(bundle, producer())

    # -- attaching -------------------------------------------------------------

    def attach(self, bundle: str) -> Optional[Dict[str, np.ndarray]]:
        """Read-only views of an existing bundle, or ``None`` if absent.

        Each successful call increments the bundle's per-process refcount;
        pair it with :meth:`detach`.
        """
        self._check_open()
        existing = self._bundles.get(bundle)
        if existing is not None:
            existing.refcount += 1
            return existing.arrays
        name = _segment_name(self.prefix, bundle)
        try:
            return self._attach_existing(bundle, name)
        except FileNotFoundError:
            return None

    def _attach_existing(self, bundle: str, name: str) -> Dict[str, np.ndarray]:
        segment = shared_memory.SharedMemory(name=name, create=False)
        _untrack(segment)
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while segment.buf[: len(MAGIC)] != MAGIC:
            if time.monotonic() > deadline:
                segment.close()
                raise SharedStoreError(
                    f"bundle {bundle!r} never became ready; its publisher "
                    "likely died mid-write — sweep and republish"
                )
            time.sleep(0.001)
        views = bundle_views(segment.buf)
        self._bundles[bundle] = _Bundle(
            segment=segment, arrays=views, refcount=1, owned=False
        )
        return views

    # -- refcounting & lifecycle ----------------------------------------------

    def refcount(self, bundle: str) -> int:
        """This process's attach balance for ``bundle`` (0 when unattached)."""
        entry = self._bundles.get(bundle)
        return 0 if entry is None else entry.refcount

    def detach(self, bundle: str) -> None:
        """Drop one reference; unmap locally when the count reaches zero.

        Unmapping only detaches *this process* — the segment (and every
        other process's views) survives.  Detaching an unattached bundle is
        an error, as it indicates an attach/detach imbalance.
        """
        entry = self._bundles.get(bundle)
        if entry is None:
            raise SharedStoreError(f"bundle {bundle!r} is not attached")
        entry.refcount -= 1
        if entry.refcount > 0:
            return
        del self._bundles[bundle]
        self._release(entry, unlink=entry.owned and self.unlink_on_close)

    def close(self) -> None:
        """Unmap every attachment; unlink segments this store created.

        Idempotent, and registered with ``atexit`` for every live store, so
        a worker that exits normally never leaks its segments.
        """
        if self._closed:
            return
        self._closed = True
        bundles = list(self._bundles.values())
        self._bundles.clear()
        for entry in bundles:
            self._release(entry, unlink=entry.owned and self.unlink_on_close)
        _LIVE_STORES.discard(self)

    @staticmethod
    def _release(entry: _Bundle, unlink: bool) -> None:
        entry.arrays = {}
        segment = entry.segment
        try:
            segment.close()
        except BufferError:
            # A consumer still holds views into the mapping — the unmap
            # happens when those views are garbage-collected (the views keep
            # the memoryview and mmap alive).  Disarm the handle so its
            # __del__ does not retry the close and spray "Exception
            # ignored" noise at interpreter shutdown; only the fd can be
            # released now (the mapping no longer needs it).
            segment._buf = None
            segment._mmap = None
            if getattr(segment, "_fd", -1) >= 0:
                try:
                    os.close(segment._fd)
                except OSError:
                    pass
                segment._fd = -1
        if unlink:
            _unlink_quietly(segment)

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- crash backstop --------------------------------------------------------

    @classmethod
    def sweep(cls, prefix: str) -> List[str]:
        """Unlink every leftover segment under ``prefix``; return their names.

        The parent-side backstop for workers killed without running
        ``atexit`` (SIGKILL, segfault): segments they created would
        otherwise pin physical memory until reboot.  Only call this when no
        process under the prefix is still serving — a sweep yanks segments
        out from under live attachments.  Degrades to a no-op on platforms
        without a visible shm filesystem.
        """
        removed: List[str] = []
        try:
            names = os.listdir(_SHM_DIR)
        except OSError:
            return removed
        marker = f"{prefix}-"
        for name in names:
            if not name.startswith(marker):
                continue
            try:
                leftover = shared_memory.SharedMemory(name=name, create=False)
            except (FileNotFoundError, OSError):
                continue  # lost a race with another sweeper
            _untrack(leftover)
            try:
                _unlink_quietly(leftover)
                removed.append(name)
            finally:
                leftover.close()
        return removed
