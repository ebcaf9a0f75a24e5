"""Cross-process message transport backing the process executor backend.

Each rank owns one ``multiprocessing`` inbox queue.  A send routes the
message to the destination rank's inbox; the receiver drains its inbox into
a local stash and matches mailbox keys, preserving per-sender FIFO order
(the queue preserves each producer's order, which is exactly MPI's
non-overtaking guarantee).

Large ndarray payloads never travel through the queue's pipe: the sender
parks the bytes in a POSIX shared-memory segment and sends only a small
pickled header (name, shape, dtype); everything else — small arrays, Python
scalars, tuples of headers — is pickled.  Three mechanisms keep the hot
path cheap:

* **Segment arena** (:class:`SegmentArena`): segments are drawn from a
  size-bucketed pool of reusable mappings instead of being created and
  unlinked per message.  A send *transfers ownership* of the segment to the
  receiver; when the receiver is done with it, the segment is adopted into
  the receiver's arena and reused for its own future sends, so segments
  circulate between ranks instead of churning through ``shm_open``/
  ``shm_unlink``.
* **Zero-copy receives** (:class:`ShmArrayView`): ``decode_payload`` hands
  the receiver a *read-only* ndarray view directly backed by the shared
  segment.  The segment is recycled into the arena only when the last view
  dies (or :meth:`ShmArrayView.release` is called), so large TTM operands
  are never copied on the receive side.
* **Collective windows** (:class:`CollectiveWindow`, :class:`MatrixWindow`):
  each communicator can open preallocated shm windows (MPI-3 RMA style)
  that every collective writes into directly — ``barrier``/``bcast``/
  ``gather``/``allgather``/``reduce``/``allreduce``/
  ``reduce_scatter_block`` through a P-slot window, ``scatter``/
  ``alltoall`` through a P×P pair-slotted one — one barrier-fenced
  single-copy exchange per collective.  Initial slots are sized from the
  communicator's first payload.  Every fence is split into a non-blocking
  publish half (``post_size_nowait`` / ``commit_nowait``) and a wait half
  (``wait_posted`` / ``wait_written``) so the communicator's non-blocking
  collectives can deposit their contribution at post time and defer the
  fence spins to ``wait()``, overlapping them with local compute.
  Windows open only where :data:`WINDOWS_ENABLED` says
  the platform orders plain stores (x86-64); elsewhere, and for a round
  whose window allocation is denied, the communicator runs the same
  round over this transport's messages (its mailbox round).

Poisoning uses a shared event: when any rank dies its transport sets the
event, and every sibling blocked in :meth:`ProcessTransport.get` (or
spinning on a window fence) notices within one poll interval and raises
:class:`DeadlockError`.
"""

from __future__ import annotations

import _posixshmem
import mmap
import os
import pickle
import platform
import queue as queue_mod
import secrets
import struct
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Hashable

import numpy as np

from repro import resources
from repro.config import default_for
from repro.mpi.errors import DeadlockError
from repro.mpi.transport import TransportBase

#: Arrays at or above this many bytes ride in shared memory; smaller ones
#: are cheaper to pickle straight through the queue's pipe.
SHM_MIN_BYTES = 256

#: Adaptive poll backoff while blocked on the inbox or a window fence:
#: start fast so small-message latency is not floored at the poll interval,
#: back off exponentially so idle waits stay cheap.
_POLL_MIN_INTERVAL = 0.001
_POLL_MAX_INTERVAL = 0.05

#: How long a window fence polls with bare ``sleep(0)`` scheduler yields
#: before falling back to the exponential sleep above.  Fences between
#: co-scheduled ranks resolve in this regime almost always.
_FENCE_YIELD_SECONDS = 0.002

#: Machines whose memory model is total store order: a plain store of a
#: window's data is visible to another core before the later store of its
#: flag (see :class:`CollectiveWindow`).
_TSO_MACHINES = frozenset({"x86_64", "amd64", "i386", "i686"})

#: Whether collectives ride shared-memory windows on this host.  Elsewhere
#: (aarch64, ppc64le, ...) the unfenced data-before-flag stores could be
#: reordered, so collectives run their rounds over messages, whose
#: ordering the OS queue guarantees.
WINDOWS_ENABLED = platform.machine().lower() in _TSO_MACHINES

#: Smallest arena bucket (one page), per-bucket free-list cap, and the
#: total bytes an arena may keep pinned in its free lists — recycles
#: beyond the budget unlink instead, so a sweep of huge messages cannot
#: leave gigabytes of dead segments parked in /dev/shm.  Collective window
#: slots use the same buckets: the first exchange on a communicator sizes
#: its slot, and windows grow a bucket at a time when a later payload does
#: not fit.
_BUCKET_MIN = 4096
_BUCKET_MAX_FREE = 8
_ARENA_MAX_FREE_BYTES = 128 << 20

#: Name prefix for POSIX shm segments (and status boards — see
#: ``repro.faults.status``).  ``rps_`` names embed the creator's pid,
#: which is what lets :func:`reap_stale_segments` audit /dev/shm after a
#: rank crash: only segments whose creator is a *dead* process of this
#: run are reclaimed.
_SHM_PREFIX = "rps_"

#: Where POSIX shm segments surface as files on Linux (the audit sweeps
#: this directory; on hosts without it the sweep is skipped).
_SHM_DIR = "/dev/shm"


def create_segment(nbytes: int, purpose: str = "segment"):
    """A fresh shared segment of at least ``nbytes``.

    The resource governor gates every creation first: the ``purpose``
    site (``"arena"``/``"window"``/...) fires any injected resource
    faults, and a configured ``REPRO_SHM_BUDGET`` denies the request
    with :class:`~repro.resources.BudgetExceededError` (an
    ``errno.ENOSPC`` ``OSError``) *before* touching ``/dev/shm`` — the
    caller's degradation handler routes either denial or a real tmpfs
    ``ENOSPC`` to the p2p/pickle path.  Successful creations are charged
    to the governor by their actual (page-rounded) size and released on
    unlink.
    """
    gov = resources.governor()
    gov.gate(purpose, nbytes)
    for _ in range(3):
        name = f"{_SHM_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:  # pragma: no cover - 64-bit token collision
            continue
        gov.charge(shm.size)
        return shm
    # Astronomically unlikely; fall back to an auto-generated psm_ name
    # (invisible to the crash audit but still tracker-reclaimed).
    shm = shared_memory.SharedMemory(create=True, size=nbytes)  # pragma: no cover
    gov.charge(shm.size)  # pragma: no cover
    return shm  # pragma: no cover


def reap_stale_segments(creator_pids) -> list[str]:
    """Crash audit: reclaim every segment a dead world owned.

    All ``rps_``-named segments (arena buckets, stash payloads, collective
    windows, status boards) whose embedded creator pid is in
    ``creator_pids`` and no longer running are attached and unlinked.
    Attaching before unlinking keeps the multiprocessing resource
    tracker balanced (it registers on attach and unregisters on
    unlink), so no leak warnings fire at interpreter exit.  Ownership
    of a segment is transferable between a run's processes, so the
    sweep runs only after the whole world is down — the caller passes
    the pids it just joined or reaped.  Pid reuse is guarded by a
    liveness re-check: a still-running pid is skipped (a leak beats
    unlinking live data).  Returns the removed names.
    """
    creator_pids = {int(p) for p in creator_pids if p is not None}
    creator_pids.discard(os.getpid())
    removed: list[str] = []
    if not creator_pids:
        return removed
    try:
        names = os.listdir(_SHM_DIR)
    except (FileNotFoundError, NotADirectoryError):
        return removed  # no /dev/shm on this host: nothing to sweep
    for name in names:
        if not name.startswith(_SHM_PREFIX):
            continue
        try:
            pid = int(name[len(_SHM_PREFIX):].split("_", 1)[0])
        except ValueError:
            continue
        if pid not in creator_pids:
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:  # raced removal
                continue
            except OSError:  # pragma: no cover - unreadable entry
                continue
            _close_and_unlink(shm)
            removed.append(name)
        except PermissionError:  # pragma: no cover - reused pid, other user
            pass
    return removed


def _bucket_of(nbytes: int) -> int:
    """Smallest power-of-two bucket (>= one page) holding ``nbytes``."""
    size = _BUCKET_MIN
    while size < nbytes:
        size <<= 1
    return size


class SegmentArena:
    """Per-process pool of reusable shared-memory segments.

    ``acquire`` hands out a mapped segment of a power-of-two bucket size,
    reusing a pooled one when available.  Ownership is explicit: segments
    in the free lists belong to this process and are unlinked at
    :meth:`teardown`; a segment sent to another rank is owned by the
    message in flight until the receiver adopts it (see
    :class:`_SegmentLease`) or the executor reclaims it.
    """

    def __init__(self) -> None:
        self._free: dict[int, deque[shared_memory.SharedMemory]] = {}
        self._free_bytes = 0
        self._leases: weakref.WeakSet[_SegmentLease] = weakref.WeakSet()
        self.created = 0
        self.reused = 0
        self.adopted = 0

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """A mapped segment of at least ``nbytes`` (caller owns it)."""
        bucket = _bucket_of(nbytes)
        box = self._free.get(bucket)
        if box:
            self.reused += 1
            self._free_bytes -= bucket
            return box.popleft()
        self.created += 1
        return create_segment(bucket, purpose="arena")

    def recycle(self, shm: shared_memory.SharedMemory) -> None:
        """Return an owned segment to the free list (or unlink it)."""
        bucket = _BUCKET_MIN
        while bucket * 2 <= shm.size:
            bucket *= 2
        box = self._free.setdefault(bucket, deque())
        if (
            len(box) < _BUCKET_MAX_FREE
            and self._free_bytes + bucket <= _ARENA_MAX_FREE_BYTES
        ):
            box.append(shm)
            self._free_bytes += bucket
            return
        _close_and_unlink(shm)

    def adopt(self, shm: shared_memory.SharedMemory) -> None:
        """Take ownership of a segment another process created."""
        self.adopted += 1
        self.recycle(shm)

    def track(self, lease: "_SegmentLease") -> None:
        self._leases.add(lease)

    def teardown(self) -> None:
        """Release outstanding leases and unlink every pooled segment."""
        for lease in list(self._leases):
            lease.close()
        self._leases.clear()
        for box in self._free.values():
            while box:
                _close_and_unlink(box.popleft())
        self._free.clear()
        self._free_bytes = 0


def _close_and_unlink(shm: shared_memory.SharedMemory) -> None:
    nbytes = int(getattr(shm, "size", 0))
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a view still exports the buffer
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        return  # whoever unlinked it released its bytes
    # Release by the unlinker, not the creator: ownership of a segment is
    # transferable between a world's processes, and the resource board
    # sums per-process ledgers, so the world total nets out correctly.
    resources.governor().release(nbytes)


_ARENA: SegmentArena | None = None


def process_arena() -> SegmentArena:
    """This process's segment arena (created lazily, reset after fork)."""
    global _ARENA
    if _ARENA is None:
        _ARENA = SegmentArena()
    return _ARENA


def _reset_after_fork() -> None:
    # A child must not inherit the parent's arena: the pooled segments in
    # it are owned by the parent, and two processes unlinking or reusing
    # the same free list would corrupt messages.  Dropping the reference
    # only closes the child's inherited mappings (SharedMemory.__del__
    # never unlinks).
    global _ARENA
    _ARENA = None


os.register_at_fork(after_in_child=_reset_after_fork)


class _SegmentLease:
    """Keeps a received segment alive while views of it exist.

    Created by :func:`decode_payload`; held by every
    :class:`ShmArrayView` over the segment.  When the last view dies (or
    :meth:`close` is called explicitly) the segment is adopted into this
    process's arena and becomes available for its own sends.
    """

    __slots__ = ("_arena", "_shm", "_closed", "__weakref__")

    def __init__(self, arena: SegmentArena, shm: shared_memory.SharedMemory):
        self._arena = arena
        self._shm = shm
        self._closed = False
        arena.track(self)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._arena.adopt(self._shm)

    def __del__(self):  # pragma: no cover - exercised via GC
        try:
            self.close()
        except Exception:
            pass


class ShmArrayView(np.ndarray):
    """Read-only ndarray backed directly by a shared-memory segment.

    The receive-side half of the zero-copy path: no bytes are copied out
    of the segment.  The view (and everything derived from it) keeps the
    segment leased; the segment returns to the arena when the last view is
    garbage-collected or :meth:`release` is called.  The buffer is
    read-only because the memory may be reused by another rank the moment
    the lease is released — copy (``np.array(view)``) before mutating.
    """

    def __new__(
        cls,
        lease: _SegmentLease,
        shape: tuple[int, ...],
        dtype: np.dtype,
        order: str,
    ):
        obj = super().__new__(
            cls, shape, dtype=dtype, buffer=lease._shm.buf, order=order
        )
        obj._lease = lease
        obj.flags.writeable = False
        return obj

    def __array_finalize__(self, obj):
        if not hasattr(self, "_lease"):
            self._lease = getattr(obj, "_lease", None)

    def release(self) -> None:
        """Return the backing segment to the arena immediately.

        After this the view's contents may be overwritten at any time;
        only call it when the data has been consumed or copied.
        """
        if self._lease is not None:
            self._lease.close()


@dataclass(frozen=True)
class ShmHeader:
    """Pickled stand-in for an ndarray whose bytes live in shared memory.

    ``dtype`` is the actual :class:`numpy.dtype` (itself picklable) so
    structured dtypes keep their field definitions.  ``order`` preserves
    the array's memory layout ('C' or 'F'): downstream BLAS takes
    different code paths for transposed operands, so flattening everything
    to C order would break bit-identity with the thread backend.
    """

    name: str
    shape: tuple[int, ...]
    dtype: np.dtype
    order: str


def _layout_order(arr: np.ndarray) -> str:
    return (
        "F" if arr.flags.f_contiguous and not arr.flags.c_contiguous else "C"
    )


def encode_payload(
    obj: Any,
    segments: list[shared_memory.SharedMemory],
    arena: SegmentArena | None = None,
) -> Any:
    """Replace large ndarrays in ``obj`` with shared-memory headers.

    Recurses through lists/tuples/dicts (the containers the communicator
    and its collectives actually send); anything else is left for pickle.
    Segments come from ``arena`` when given (reusing pooled mappings) and
    are appended to ``segments`` so the caller can recycle them if the
    send fails mid-way; a completed send transfers their ownership to the
    receiver.

    Degrades gracefully under exhaustion: when the segment cannot be
    created — tmpfs ``ENOSPC``/``ENOMEM``, a budget denial, or an
    injected ``enospc`` fault at the ``arena`` site — the array is left
    in place so it rides the pickle stream instead, bit-identically; the
    fallback is recorded on the resource governor.  Any other ``OSError``
    still propagates.
    """
    if (
        isinstance(obj, np.ndarray)
        and obj.nbytes >= SHM_MIN_BYTES
        # Object-dtype buffers hold PyObject pointers that are meaningless
        # in another process; those arrays must go through pickle instead.
        and not obj.dtype.hasobject
    ):
        order = _layout_order(obj)
        src = np.asarray(obj, order=order)
        try:
            if arena is not None:
                shm = arena.acquire(src.nbytes)
            else:
                shm = create_segment(src.nbytes, purpose="arena")
        except OSError as exc:
            if not resources.is_exhaustion(exc):
                raise
            resources.governor().note_degradation(
                "arena", "pickle", src.nbytes, str(exc)
            )
            return obj
        segments.append(shm)
        np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf, order=order)[
            ...
        ] = src
        return ShmHeader(shm.name, src.shape, src.dtype, order)
    if isinstance(obj, tuple):
        return tuple(encode_payload(x, segments, arena) for x in obj)
    if isinstance(obj, list):
        return [encode_payload(x, segments, arena) for x in obj]
    if isinstance(obj, dict):
        return {k: encode_payload(v, segments, arena) for k, v in obj.items()}
    return obj


def decode_payload(obj: Any, arena: SegmentArena) -> Any:
    """Inverse of :func:`encode_payload` (the receive fast path).

    Segment-backed arrays come back as read-only :class:`ShmArrayView`
    instances — no bytes are copied; the segment is recycled into
    ``arena`` when the last view dies.
    """
    if isinstance(obj, ShmHeader):
        lease = _SegmentLease(arena, shared_memory.SharedMemory(name=obj.name))
        return ShmArrayView(lease, obj.shape, obj.dtype, obj.order)
    if isinstance(obj, tuple):
        return tuple(decode_payload(x, arena) for x in obj)
    if isinstance(obj, list):
        return [decode_payload(x, arena) for x in obj]
    if isinstance(obj, dict):
        return {k: decode_payload(v, arena) for k, v in obj.items()}
    return obj


def _map_borrowed(
    name: str, access: int, kind: type[mmap.mmap] = mmap.mmap
) -> mmap.mmap:
    """Map a POSIX shm segment another process owns, whole, without
    adopting it (no ``SharedMemory`` handle, no resource-tracker entry)."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0)
    try:
        return kind(fd, 0, access=access)
    finally:
        os.close(fd)


class _BorrowedMapping(mmap.mmap):
    """A ``MAP_PRIVATE`` mapping :func:`decode_borrowed` made: the mark
    :func:`is_borrowed` reads."""


def decode_borrowed(obj: Any, mapped: "weakref.WeakSet[mmap.mmap]") -> Any:
    """Map segments the *sender still owns* copy-on-write.

    Used for pool task arguments: the dispatching parent stages them in
    its own arena once, and every worker maps that segment
    ``MAP_PRIVATE``, never unlinking
    or adopting it.  The rank gets a private writable array — a write
    never reaches the parent, another rank or the next run — but pays
    only for the pages it touches, so a block of it may be used where it
    lies (:func:`is_borrowed`).  Each array owns its mapping, which is
    also added to ``mapped``.  The parent recycles the segments once every
    report is in, and unwritten pages would then show the next tenant's
    bytes: the worker drops the run's references before it reports, and
    :func:`privatise_borrowed` gives any mapping in ``mapped`` that is
    still referenced (a block a rank function kept) its own copy of
    every page.
    """
    if isinstance(obj, ShmHeader):
        mapping = _map_borrowed(obj.name, mmap.ACCESS_COPY, _BorrowedMapping)
        mapped.add(mapping)
        return np.ndarray(
            obj.shape, dtype=obj.dtype, order=obj.order, buffer=mapping
        )
    if isinstance(obj, tuple):
        return tuple(decode_borrowed(x, mapped) for x in obj)
    if isinstance(obj, list):
        return [decode_borrowed(x, mapped) for x in obj]
    if isinstance(obj, dict):
        return {k: decode_borrowed(v, mapped) for k, v in obj.items()}
    return obj


def is_borrowed(array: np.ndarray) -> bool:
    """Whether ``array`` views a mapping :func:`decode_borrowed` made: it
    is then this process's private copy-on-write memory."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, _BorrowedMapping)


def privatise_borrowed(mapped: "weakref.WeakSet[mmap.mmap]") -> None:
    """Copy every page of each mapping in ``mapped`` that is still
    referenced into private memory (one write per page forces the
    copy-on-write), so it never shows bytes staged after this point.
    Empties ``mapped``."""
    for mapping in list(mapped):
        pages = np.ndarray((len(mapping),), np.uint8, buffer=mapping)
        pages[:: mmap.PAGESIZE] += 0
        del pages
    mapped.clear()


def release_payload(obj: Any) -> None:
    """Unlink every shared-memory segment referenced by an encoded payload.

    Used to reclaim segments of messages that were never delivered (runs
    that ended with undrained inboxes, stale pooled-run messages): the
    send transferred ownership to the message, so with the receiver gone
    somebody must unlink the name.
    """
    if isinstance(obj, ShmHeader):
        try:
            shm = shared_memory.SharedMemory(name=obj.name)
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            return
        _close_and_unlink(shm)
        return
    if isinstance(obj, (list, tuple)):
        for x in obj:
            release_payload(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            release_payload(x)


#: Byte alignment of each buffer inside a staged-result segment.
_STAGE_ALIGN = 64


@dataclass(frozen=True)
class StagedValue:
    """A rank's return value whose array bytes wait in a segment the rank
    still owns: ``body`` is a protocol-5 pickle with its buffers out of
    band, ``spans`` their ``(offset, nbytes)`` inside segment ``name``."""

    body: bytes
    name: str
    spans: tuple[tuple[int, int], ...]


def stage_value(
    value: Any, arena: SegmentArena
) -> tuple[Any, shared_memory.SharedMemory | None]:
    """The return-path mirror of :func:`decode_borrowed`: write the
    buffers of ``value`` once to one arena segment so
    that only a small pickle has to cross the result queue.

    Pickle protocol 5 finds the buffers inside *any* returned object — a
    ``TuckerTensor`` is opaque to :func:`encode_payload`'s container
    walk.  Returns ``(StagedValue, segment)``; the caller keeps the
    segment until the parent has read it (:func:`unstage_value` only
    borrows) and then recycles it.  Values with no buffer of at least
    :data:`SHM_MIN_BYTES`, values pickle refuses, and allocations denied
    for exhaustion (recorded on the governor) return ``(value, None)``
    and ride the pickle stream as before.
    """
    buffers: list[memoryview] = []

    def in_band(buf: pickle.PickleBuffer) -> bool:
        raw = buf.raw()
        if raw.nbytes < SHM_MIN_BYTES:
            return True
        buffers.append(raw)
        return False

    try:
        body = pickle.dumps(value, protocol=5, buffer_callback=in_band)
    except Exception:
        return value, None  # the report path words the diagnosis
    if not buffers:
        return value, None
    spans = []
    total = 0
    for raw in buffers:
        spans.append((total, raw.nbytes))
        total += -(-raw.nbytes // _STAGE_ALIGN) * _STAGE_ALIGN
    try:
        shm = arena.acquire(total)
    except OSError as exc:
        if not resources.is_exhaustion(exc):
            raise
        resources.governor().note_degradation(
            "arena", "pickle", total, str(exc)
        )
        return value, None
    for (offset, nbytes), raw in zip(spans, buffers):
        shm.buf[offset : offset + nbytes] = raw
    return StagedValue(body, shm.name, tuple(spans)), shm


def unstage_value(staged: StagedValue) -> Any:
    """Rebuild a staged value from its (borrowed) segment: every buffer
    is copied out once, so the arrays are private, writable and outlive
    the segment, which stays the staging rank's to recycle."""
    mapping = _map_borrowed(staged.name, mmap.ACCESS_READ)
    try:
        with memoryview(mapping) as view:
            buffers = [
                bytearray(view[offset : offset + nbytes])
                for offset, nbytes in staged.spans
            ]
    finally:
        mapping.close()
    return pickle.loads(staged.body, buffers=buffers)


# -- collective windows ------------------------------------------------------

#: Slot prefix: little-endian uint64 length of the pickled metadata blob.
_META_LEN = struct.Struct("<Q")


def pack_collective(obj: Any) -> tuple[bytes, np.ndarray | None]:
    """Split a collective contribution into (prefix bytes, raw payload).

    Plain ndarrays travel as raw bytes after a tiny pickled header (shape,
    dtype, layout order — the same layout preservation as point-to-point
    sends); everything else is pickled whole into the prefix.
    """
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        order = _layout_order(obj)
        src = np.asarray(obj, order=order)
        meta = pickle.dumps(("nd", src.shape, src.dtype, order))
        return _META_LEN.pack(len(meta)) + meta, src
    meta = pickle.dumps(("py",))
    return _META_LEN.pack(len(meta)) + meta + pickle.dumps(obj), None


def packed_nbytes(prefix: bytes, payload: np.ndarray | None) -> int:
    return len(prefix) + (payload.nbytes if payload is not None else 0)


def _write_packed(
    slot: memoryview, prefix: bytes, payload: np.ndarray | None
) -> None:
    slot[: len(prefix)] = prefix
    if payload is not None and payload.nbytes:
        dst = np.ndarray(
            payload.shape,
            dtype=payload.dtype,
            buffer=slot[len(prefix) : len(prefix) + payload.nbytes],
            order=_layout_order(payload),
        )
        dst[...] = payload


def _read_packed(slot: memoryview) -> Any:
    """Decode one slot, copying the payload out of the window."""
    (meta_len,) = _META_LEN.unpack(slot[: _META_LEN.size])
    off = _META_LEN.size + meta_len
    meta = pickle.loads(slot[_META_LEN.size : off])
    if meta[0] == "nd":
        _, shape, dtype, order = meta
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        view = np.ndarray(
            shape, dtype=dtype, buffer=slot[off : off + nbytes], order=order
        )
        return np.array(view, copy=True)
    return pickle.loads(slot[off:])


class CollectiveWindow:
    """A preallocated per-communicator shared-memory exchange window.

    Layout: six int64 flag arrays of length P (``sizes``, ``posted``,
    ``written``, ``done``, ``words``, ``digests``), one int64 generation
    counter per data slot, then the P fixed-size data slots (P×P for
    :class:`MatrixWindow`).  Every flag slot has exactly one writer (its
    rank), so fences need no atomic read-modify-write: a rank publishes
    by storing the current exchange sequence number into its own slot
    and spins until every slot reaches the sequence.  One exchange is
    write → fence → read → fence, i.e. a single data copy per reader
    instead of one message per pair of members.

    ``digests`` and the slot generations serve the SPMD sanitizer
    (:mod:`repro.analysis.sanitizer`): each rank's collective-signature
    digest rides the size fence so the communicator can detect diverging
    collectives without extra messages, and every :meth:`write_to` /
    :meth:`write_pair` stamps its slot's generation so a read of a stale
    or unfenced slot is detectable.  Both are single int64 stores on the
    hot path; the *checks* run only when ``sanitize`` is positive.

    ``words`` carries each rank's *modeled* contribution size (in
    8-byte words) alongside the exchange: collectives whose closed-form
    charge depends on sizes only some ranks know locally (gather's
    total, alltoall's heaviest row) read :meth:`total_words` /
    :meth:`max_words` after the size fence, so every member charges the
    identical cost without extra messages.

    Portability note: the data-before-flag ordering relies on the
    total-store-order guarantee of x86-64.  On architectures with weaker
    memory models (aarch64) the plain stores carry no fence, so there
    :data:`WINDOWS_ENABLED` is false and no window is opened: the
    communicator runs the same rounds over queue-backed messages (its
    mailbox round), whose ordering the OS guarantees.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        size: int,
        index: int,
        slot_bytes: int,
        owner: bool,
        abort_event,
        timeout: float,
        sanitize: int = 0,
        faults=None,
        status=None,
    ):
        self._shm = shm
        self.size = size
        self.index = index
        self.slot_bytes = slot_bytes
        self.owner = owner
        self._abort = abort_event
        self.timeout = timeout
        self.sanitize = sanitize
        self._faults = faults
        self._status = status
        self.seq = 0
        flag_bytes = 8 * size
        n_data = self._n_data_slots(size)
        buf = shm.buf
        self._sizes = np.frombuffer(buf, np.int64, size, offset=0)
        self._posted = np.frombuffer(buf, np.int64, size, offset=flag_bytes)
        self._written = np.frombuffer(
            buf, np.int64, size, offset=2 * flag_bytes
        )
        self._done = np.frombuffer(buf, np.int64, size, offset=3 * flag_bytes)
        self._words = np.frombuffer(buf, np.int64, size, offset=4 * flag_bytes)
        self._digests = np.frombuffer(
            buf, np.int64, size, offset=5 * flag_bytes
        )
        self._gen = np.frombuffer(
            buf, np.int64, n_data, offset=6 * flag_bytes
        )
        self._data_off = 6 * flag_bytes + 8 * n_data
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def _n_data_slots(cls, size: int) -> int:
        """Data slots backing a P-member window (P×P for matrix windows)."""
        return size

    @classmethod
    def create(
        cls,
        size: int,
        index: int,
        slot_bytes: int,
        abort_event,
        timeout: float,
        sanitize: int = 0,
        faults=None,
        status=None,
    ) -> "CollectiveWindow":
        n_data = cls._n_data_slots(size)
        total = 6 * 8 * size + 8 * n_data + n_data * slot_bytes
        # Fresh segments are zero-filled by the OS, so all flags start at
        # 0 — exactly "sequence 0 complete".
        shm = create_segment(total, purpose="window")
        return cls(
            shm,
            size,
            index,
            slot_bytes,
            True,
            abort_event,
            timeout,
            sanitize,
            faults=faults,
            status=status,
        )

    @classmethod
    def attach(
        cls,
        name: str,
        size: int,
        index: int,
        slot_bytes: int,
        abort_event,
        timeout: float,
        sanitize: int = 0,
        faults=None,
        status=None,
    ) -> "CollectiveWindow":
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            # The creator failed and reclaimed the window before we got
            # here; surface it as the poisoned-transport error it is.
            exc = (
                status.dead_error(f"attaching window {name!r}")
                if status is not None
                else None
            )
            if exc is not None:
                raise exc from None
            raise DeadlockError(
                f"collective window {name!r} vanished before attach: "
                f"a sibling rank failed"
            ) from None
        return cls(
            shm,
            size,
            index,
            slot_bytes,
            False,
            abort_event,
            timeout,
            sanitize,
            faults=faults,
            status=status,
        )

    # -- fences -------------------------------------------------------------

    def _dead_sibling(self, doing: str):
        """RankDeadError when the status board records a death, else None."""
        if self._status is None:
            return None
        return self._status.dead_error(doing)

    def _wait(self, flags: np.ndarray, threshold: int, what: str) -> None:
        if self._faults is not None:
            self._faults.fire("fence")
        if int(flags.min()) >= threshold:
            return
        deadline = time.monotonic() + self.timeout
        interval = _POLL_MIN_INTERVAL
        # Fences usually resolve within microseconds of each other, so
        # poll with a bare scheduler yield first; only a laggard fence
        # falls back to the exponential sleep (which would otherwise
        # floor every barrier-like exchange at the 1 ms poll interval).
        yield_deadline = time.monotonic() + _FENCE_YIELD_SECONDS
        last_progress = int((flags >= threshold).sum())
        while True:
            resources.check_deadline(f"window {what} fence")
            if self._abort is not None and self._abort.is_set():
                exc = self._dead_sibling(f"waiting on window {what}")
                if exc is not None:
                    raise exc
                raise DeadlockError(
                    f"transport aborted while waiting on window {what}: "
                    f"a sibling rank failed"
                )
            ready = int((flags >= threshold).sum())
            if ready >= self.size:
                return
            now = time.monotonic()
            if ready > last_progress:
                # Progress restarts the window, like the point-to-point
                # timeout: it detects a silent transport, not a slow peer.
                last_progress = ready
                deadline = now + self.timeout
                interval = _POLL_MIN_INTERVAL
            if now > deadline:
                exc = self._dead_sibling(f"waiting on window {what}")
                if exc is not None:
                    raise exc
                raise DeadlockError(
                    f"window {what} fence timed out after {self.timeout:g}s "
                    f"(likely mismatched collective ordering)"
                )
            if now < yield_deadline:
                time.sleep(0)  # yield the core to the rank we wait on
                continue
            time.sleep(interval)
            interval = min(interval * 2, _POLL_MAX_INTERVAL)

    def begin(self) -> int:
        """Open the next exchange: wait until the previous one fully drained."""
        self.seq += 1
        self._wait(self._done, self.seq - 1, "reuse")
        return self.seq

    def fence(self) -> int:
        """One zero-byte rendezvous (the whole of ``barrier``).

        A fence moves no data, so the rank publishes its arrival
        (``posted``) and its round completion (``done``) in the same
        breath before waiting: nobody reads after the wait, and the next
        round's reuse check is satisfied the moment everyone has posted
        — one global rendezvous per barrier instead of three fences.
        The reuse wait up front still protects the *previous* round's
        readers from this rank's flag overwrites.
        """
        self.seq += 1
        self._wait(self._done, self.seq - 1, "reuse")
        self._sizes[self.index] = 0
        self._words[self.index] = 0
        self._done[self.index] = self.seq
        self._posted[self.index] = self.seq
        self._wait(self._posted, self.seq, "fence")
        return self.seq

    def post_size_nowait(
        self, nbytes: int, words: int = 0, digest: int = 0
    ) -> None:
        """Publish this rank's packed size (bytes) and modeled ``words``
        without waiting for the peers — the non-blocking half of
        :meth:`post_size`.  Pair with :meth:`wait_posted` (typically at a
        request's ``wait()``) before trusting ``max``/``total`` readers.
        ``digest`` is the sanitizer's collective-signature digest riding
        the fence (0 when the sanitizer is off)."""
        self._words[self.index] = words
        self._digests[self.index] = digest
        self._sizes[self.index] = nbytes
        self._posted[self.index] = self.seq

    def wait_posted(self) -> int:
        """Finish the size fence: wait until every rank posted this round's
        size, then return the max packed size (drives window growth)."""
        self._wait(self._posted, self.seq, "size exchange")
        return int(self._sizes.max())

    def post_size(self, nbytes: int, words: int = 0, digest: int = 0) -> int:
        """Publish this rank's packed size (bytes) and modeled ``words``;
        return the max packed size over ranks (drives window growth)."""
        self.post_size_nowait(nbytes, words, digest)
        return self.wait_posted()

    def digest_mismatch_ranks(self, digest: int) -> list[int]:
        """Group ranks whose posted signature digest differs from
        ``digest`` (valid after the size fence, like ``max_words``)."""
        return [
            rank
            for rank in range(self.size)
            if int(self._digests[rank]) != digest
        ]

    def total_words(self) -> int:
        """Sum of all ranks' posted modeled words (valid after the size
        fence and until this rank's next :meth:`post_size`)."""
        return int(self._words.sum())

    def max_words(self) -> int:
        """Largest posted modeled word count over ranks (same validity
        window as :meth:`total_words`)."""
        return int(self._words.max())

    def write(self, prefix: bytes, payload: np.ndarray | None) -> None:
        self.write_to(self.index, prefix, payload)

    def write_to(
        self, slot: int, prefix: bytes, payload: np.ndarray | None
    ) -> None:
        """Write a packed contribution into an arbitrary data slot.

        Data slots need one writer *per round*, not one writer forever:
        scatter's root fills every member's slot in its round (nobody
        else writes that round), which is as single-writer as the usual
        own-slot discipline.  The flag arrays stay strictly per-rank.
        """
        self._gen[slot] = self.seq
        off = self._data_off + slot * self.slot_bytes
        _write_packed(
            self._shm.buf[off : off + self.slot_bytes], prefix, payload
        )

    def commit_nowait(self) -> None:
        """Publish this rank's write without waiting for the peers — the
        non-blocking half of :meth:`commit`.  Readers must still call
        :meth:`wait_written` before touching other ranks' slots."""
        self._written[self.index] = self.seq

    def wait_written(self) -> None:
        """Finish the write fence: wait until every rank committed."""
        self._wait(self._written, self.seq, "write fence")

    def commit(self) -> None:
        self.commit_nowait()
        self.wait_written()

    def _check_slot(self, slot: int, writer: str) -> None:
        """Level-2 happens-before check for one data-slot read."""
        from repro.mpi.errors import WindowProtocolError

        if int(self._written.min()) < self.seq:
            raise WindowProtocolError(
                f"rank {self.index}: read of window slot {slot} before the "
                f"round-{self.seq} write fence completed (read-before-fence; "
                f"call wait_written/commit first)"
            )
        gen = int(self._gen[slot])
        if gen != self.seq:
            raise WindowProtocolError(
                f"rank {self.index}: read of stale window slot {slot} "
                f"({writer} last wrote it in round {gen}, current round is "
                f"{self.seq}): no rank contributed to this slot this round"
            )

    def read(self, rank: int) -> Any:
        if self.sanitize >= 2:
            self._check_slot(rank, f"rank {rank}")
        off = self._data_off + rank * self.slot_bytes
        return _read_packed(self._shm.buf[off : off + self.slot_bytes])

    def finish(self) -> None:
        self._done[self.index] = self.seq

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drop the mapping; the creating rank also unlinks the name."""
        if self._closed:
            return
        self._closed = True
        # The flag arrays export shm.buf; drop them before closing.
        del self._sizes, self._posted, self._written, self._done, self._words
        del self._digests, self._gen
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - lingering export
            pass
        if self.owner:
            nbytes = int(getattr(self._shm, "size", 0))
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - reclaimed
                pass  # whoever unlinked it released its bytes
            else:
                resources.governor().release(nbytes)


class MatrixWindow(CollectiveWindow):
    """A P×P pair-slotted window for ``alltoall``.

    Slot ``(src, dst)`` has exactly one writer (rank ``src``) and one
    reader (rank ``dst``), so a full personalized exchange needs a single
    write → fence → read round: rank ``i`` writes its row with
    :meth:`write_pair`, the shared commit fence orders all P² writes, and
    every rank reads its column with :meth:`read_pair`.  (Scatter, whose
    only writer is the root, rides the plain P-slot window instead: the
    root fills each member's slot via ``write_to``.)  Fences and growth
    are inherited unchanged from :class:`CollectiveWindow`;
    ``slot_bytes`` bounds one *pair* payload, and the posted size is
    each rank's largest pair, so growth decisions stay collective.
    """

    @classmethod
    def _n_data_slots(cls, size: int) -> int:
        return size * size

    def _pair_off(self, src: int, dst: int) -> int:
        return self._data_off + (src * self.size + dst) * self.slot_bytes

    def write_pair(
        self, dst: int, prefix: bytes, payload: np.ndarray | None
    ) -> None:
        """Write this rank's contribution destined for rank ``dst``."""
        self._gen[self.index * self.size + dst] = self.seq
        off = self._pair_off(self.index, dst)
        _write_packed(
            self._shm.buf[off : off + self.slot_bytes], prefix, payload
        )

    def read_pair(self, src: int) -> Any:
        """Read the contribution rank ``src`` wrote for this rank."""
        if self.sanitize >= 2:
            self._check_slot(src * self.size + self.index, f"rank {src}")
        off = self._pair_off(src, self.index)
        return _read_packed(self._shm.buf[off : off + self.slot_bytes])

    # The per-rank slot accessors make no sense on a pair matrix; fail
    # loudly if a collective confuses its window kinds.
    def write(self, prefix, payload):  # pragma: no cover - guard
        raise TypeError("MatrixWindow requires write_pair(dst, ...)")

    def read(self, rank):  # pragma: no cover - guard
        raise TypeError("MatrixWindow requires read_pair(src)")


class ProcessTransport(TransportBase):
    """One rank-process's view of the shared inter-process mail system.

    Parameters
    ----------
    rank:
        The world rank owning this view (whose inbox :meth:`get` drains).
    inboxes:
        One ``multiprocessing.Queue`` per world rank, shared by fork.
    abort_event:
        ``multiprocessing.Event`` set when any rank dies.
    timeout:
        Deadlock-detection timeout for blocking receives, in seconds.
    run_seq:
        Sequence number of the SPMD run this transport serves.  Pooled
        workers reuse inbox queues across runs; a message enveloped with a
        different ``run_seq`` is a straggler from an earlier run and is
        dropped (its segments reclaimed) instead of being delivered.
    sanitize:
        SPMD sanitizer level handed to the collective windows (level 2
        enables their per-slot generation checks); ``None`` consults
        ``REPRO_SANITIZE``.  The executor backend resolves the level
        once per run and passes it explicitly, so pooled workers never
        depend on environment inheritance at fork time.
    faults:
        Optional :class:`repro.faults.FaultInjector` for this rank:
        ``put``/``get`` fire the ``send``/``recv`` sites (``send`` fires
        *after* segments are staged, so a crash fault there exercises
        the leaked-segment audit), and windows inherit it for the
        ``fence`` site.
    status:
        Optional :class:`repro.faults.StatusBoard`: blocking receives
        and window fences consult it when the abort event trips, so a
        recorded rank death surfaces as :class:`RankDeadError` (naming
        the dead rank and its last collective) instead of a generic
        :class:`DeadlockError`.
    """

    #: Sends already copy into a fresh segment (or a pickle), so the
    #: communicator can skip its defensive pre-send copy.
    copies_on_send = True

    def __init__(
        self,
        rank: int,
        inboxes,
        abort_event,
        timeout: float = 60.0,
        run_seq: int = 0,
        sanitize: int | None = None,
        faults=None,
        status=None,
    ):
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._rank = rank
        self._inboxes = inboxes
        self._abort = abort_event
        self._run_seq = run_seq
        self.faults = faults
        self.status = status
        self._stash: dict[Hashable, deque[Any]] = {}
        self._windows: list[CollectiveWindow] = []
        self.windows_enabled = WINDOWS_ENABLED
        if sanitize is None:
            sanitize = int(default_for("sanitize"))
        self.sanitize = sanitize

    @property
    def arena(self) -> SegmentArena:
        return process_arena()

    def put(self, key: Hashable, payload: Any, dst: int | None = None) -> None:
        if dst is None:
            raise ValueError(
                "ProcessTransport.put requires the destination world rank"
            )
        arena = self.arena
        segments: list[shared_memory.SharedMemory] = []
        try:
            blob = pickle.dumps(
                (self._run_seq, key, encode_payload(payload, segments, arena))
            )
            if self.faults is not None:
                # After staging, before the queue put: a crash fault here
                # dies with segments parked in /dev/shm — the exact leak
                # the crash audit must reclaim.
                self.faults.fire("send")
        except Exception:
            for shm in segments:
                arena.recycle(shm)
            raise
        # Ownership of the segments now rides with the message; dropping
        # our SharedMemory handles closes this process's mappings only.
        self._inboxes[dst].put(blob)

    def get(self, key: Hashable) -> Any:
        if self.faults is not None:
            self.faults.fire("recv")
        box = self._stash.get(key)
        if box:
            payload = box.popleft()
            if not box:
                del self._stash[key]
            return payload
        inbox = self._inboxes[self._rank]
        deadline = time.monotonic() + self.timeout
        interval = _POLL_MIN_INTERVAL
        while True:
            resources.check_deadline(f"receive on {key!r}")
            if self._abort.is_set():
                exc = self._dead_sibling(f"waiting on {key!r}")
                if exc is not None:
                    raise exc
                raise DeadlockError(
                    f"transport aborted while waiting on {key!r}: "
                    f"a sibling rank failed"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                exc = self._dead_sibling(f"waiting on {key!r}")
                if exc is not None:
                    raise exc
                raise DeadlockError(
                    f"receive on {key!r} timed out after "
                    f"{self.timeout:g}s (likely mismatched send/recv or "
                    f"collective ordering)"
                )
            try:
                blob = inbox.get(timeout=min(interval, remaining))
            except queue_mod.Empty:
                interval = min(interval * 2, _POLL_MAX_INTERVAL)
                continue
            # Any arrival restarts the window, mirroring the thread
            # transport, whose cond.wait timeout restarts on every notify:
            # the timeout detects a *silent* transport, not a slow peer.
            deadline = time.monotonic() + self.timeout
            interval = _POLL_MIN_INTERVAL
            msg_seq, msg_key, encoded = pickle.loads(blob)
            if msg_seq != self._run_seq:
                # Straggler from a previous pooled run: reclaim and drop.
                release_payload(encoded)
                continue
            payload = decode_payload(encoded, self.arena)
            if msg_key == key:
                return payload
            self._stash.setdefault(msg_key, deque()).append(payload)

    def abort(self, exc: BaseException) -> None:
        self._abort.set()

    def aborted(self) -> bool:
        return self._abort.is_set()

    def _dead_sibling(self, doing: str):
        """RankDeadError when the status board records a death, else None."""
        if self.status is None:
            return None
        return self.status.dead_error(doing)

    def note_collective(self, op: str, seq: int) -> None:
        """Record the collective this rank is entering on the status board
        (its last-op context, shown in RankDeadError post-mortems)."""
        if self.status is not None:
            self.status.note(self._rank, op, seq)

    def pending(self) -> int:
        """Undelivered messages already drained into this rank's stash.

        Messages still in flight inside the OS queue are not visible; the
        executor separately drains and reclaims those at the end of a run.
        """
        return sum(len(box) for box in self._stash.values())

    # -- collective windows --------------------------------------------------

    def window_slot(self, needed: int) -> int:
        """Slot size (bytes) for a window that must hold ``needed`` bytes:
        the bucket covering ``needed`` (at least one page), so the first
        exchange sizes the window."""
        return _bucket_of(needed)

    def create_window(
        self, size: int, index: int, slot_bytes: int, matrix: bool = False
    ) -> CollectiveWindow:
        cls = MatrixWindow if matrix else CollectiveWindow
        win = cls.create(
            size, index, slot_bytes, self._abort, self.timeout,
            sanitize=self.sanitize, faults=self.faults, status=self.status,
        )
        self._windows.append(win)
        return win

    def attach_window(
        self,
        name: str,
        size: int,
        index: int,
        slot_bytes: int,
        matrix: bool = False,
    ) -> CollectiveWindow:
        cls = MatrixWindow if matrix else CollectiveWindow
        win = cls.attach(
            name, size, index, slot_bytes, self._abort, self.timeout,
            sanitize=self.sanitize, faults=self.faults, status=self.status,
        )
        self._windows.append(win)
        return win

    def release_window(self, win: CollectiveWindow) -> None:
        """Close (and, for the owner, unlink) a window grown out of use."""
        win.close()
        try:
            self._windows.remove(win)
        except ValueError:  # pragma: no cover - double release
            pass

    # -- end-of-run hygiene --------------------------------------------------

    def end_run(self) -> None:
        """Release per-run resources: stashed leases and open windows.

        Called by the executor worker when the rank function finishes
        (successfully or not).  The arena itself survives — pooled workers
        keep it warm across runs.
        """
        for box in self._stash.values():
            for payload in box:
                _release_views(payload)
        self._stash.clear()
        for win in self._windows:
            win.close()
        self._windows.clear()


def _release_views(obj: Any) -> None:
    """Release every lease referenced by an undelivered decoded payload."""
    if isinstance(obj, ShmArrayView):
        obj.release()
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _release_views(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            _release_views(x)
