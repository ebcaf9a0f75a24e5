"""Cross-process message transport backing the process executor backend.

Each rank owns one ``multiprocessing`` inbox queue.  A send routes the
message to the destination rank's inbox; the receiver drains its inbox into
a local stash and matches mailbox keys, preserving per-sender FIFO order
(the queue preserves each producer's order, which is exactly MPI's
non-overtaking guarantee).

Large ndarray payloads never travel through the queue's pipe: the sender
parks the bytes in a POSIX shared-memory segment and sends only a small
pickled header (name, shape, dtype); everything else — small arrays, Python
scalars, tuples of headers — is pickled.  Two mechanisms keep the hot
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

There is one message path: point-to-point messages and every collective's
exchange round (one message from each member to each peer) ride the same
inboxes and segments.

Poisoning uses a shared event: when any rank dies its transport sets the
event, and every sibling blocked in :meth:`ProcessTransport.get` notices
within one poll interval and raises :class:`DeadlockError`.

Who owns a segment, and who unlinks it
--------------------------------------

Every segment is a :class:`Segment` named ``rps_<creator pid>_<token>``,
and exactly one process owns it at a time; the owner is the one that
unlinks it.  No helper process watches ``/dev/shm``:

* **The sender's arena** owns a segment from creation until the send
  completes, and owns its free lists for good (reused, or unlinked past
  a cap).  The parent's staged task arguments and a worker's staged
  return value stay their stager's: the other side only maps them.
* **The adopting receiver** owns a message's segment once it decodes
  the message; it adopts the segment into its own arena when the last
  view dies.  A message nobody received is unlinked by whoever drains
  it (a straggler dropped by the next run, an inbox drained after a run).
* **Teardown at exit**: a worker unlinks its arena's segments when it
  leaves its loop, and the parent unlinks its own at
  :func:`~repro.mpi.backends.shutdown_worker_pools`, which ``atexit``
  runs.
* **The retire sweep**: a retired pool's workers are joined, then
  :func:`reap_stale_segments` unlinks every segment whose creator pid is
  one of them and no longer runs — what a killed rank owned, or what was
  in flight to it.
* **A dead parent's workers**: a parent killed outright runs no
  teardown; each worker sees the end of its task pipe, unlinks its own
  arena and sweeps the parent's segments, then exits.
"""

from __future__ import annotations

import _posixshmem
import mmap
import os
import pickle
import queue as queue_mod
import secrets
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from repro import resources
from repro.mpi.errors import DeadlockError
from repro.mpi.transport import TransportBase

#: Arrays at or above this many bytes ride in shared memory; smaller ones
#: are cheaper to pickle straight through the queue's pipe.
SHM_MIN_BYTES = 256

#: Adaptive poll backoff while blocked on the inbox: start fast so
#: small-message latency is not floored at the poll interval, back off
#: exponentially so idle waits stay cheap.
_POLL_MIN_INTERVAL = 0.001
_POLL_MAX_INTERVAL = 0.05

#: Smallest arena bucket (one page), per-bucket free-list cap, and the
#: total bytes an arena may keep pinned in its free lists — recycles
#: beyond either cap unlink instead, so a sweep of huge messages cannot
#: leave gigabytes of dead segments parked in /dev/shm.  The per-bucket
#: cap is small because a rank that only receives some size (a gather's
#: root) adopts one segment per message and never sends one back: it
#: keeps at most two such segments, while a rank that sends as well
#: reuses what it adopted.
_BUCKET_MIN = 4096
_BUCKET_MAX_FREE = 2
_ARENA_MAX_FREE_BYTES = 128 << 20

#: Name prefix for POSIX shm segments (and status boards — see
#: ``repro.mpi.status``).  ``rps_`` names embed the creator's pid,
#: which is what lets :func:`reap_stale_segments` audit /dev/shm after a
#: rank crash: only segments whose creator is a *dead* process of this
#: run are reclaimed.
_SHM_PREFIX = "rps_"

#: Where POSIX shm segments surface as files on Linux (the audit sweeps
#: this directory; on hosts without it the sweep is skipped).
_SHM_DIR = "/dev/shm"


class Segment:
    """One POSIX shared-memory segment, mapped whole and read-write.

    The runtime's own handle for ``/dev/shm``: ``name``, ``size``,
    ``buf``, :meth:`close` and :meth:`unlink`, as the standard library's
    shared-memory handle has, but nothing registers the segment with a
    helper process and the descriptor is closed once the segment is
    mapped.  Who unlinks a segment, and when, is set out in this
    module's docstring.  ``Segment(name)`` attaches to an existing
    segment; :meth:`create` is the one place a segment is made.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, nbytes: int | None = None):
        # With ``nbytes`` (from :meth:`create`): make the name, exclusively.
        create = nbytes is not None
        fd = _posixshmem.shm_open(
            "/" + name,
            os.O_CREAT | os.O_EXCL | os.O_RDWR if create else os.O_RDWR,
            mode=0o600,
        )
        try:
            if nbytes is not None:
                os.ftruncate(fd, nbytes)
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        except BaseException:
            if create:
                _posixshmem.shm_unlink("/" + name)
            raise
        finally:
            os.close(fd)
        self.name = name
        self.buf = memoryview(self._mmap)

    @classmethod
    def create(cls, nbytes: int) -> "Segment":
        """A new segment of ``nbytes`` named ``rps_<pid>_<token>``, so
        the creator-pid sweep can find it if this process dies."""
        while True:
            name = f"{_SHM_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
            try:
                return cls(name, nbytes)
            except FileExistsError:  # pragma: no cover - 64-bit token collision
                continue

    def close(self) -> None:
        """Unmap this process's view; raises ``BufferError`` while an
        array still exports :attr:`buf`."""
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        """Remove the name; mappings stay valid until they are closed."""
        _posixshmem.shm_unlink("/" + self.name)


def create_segment(nbytes: int) -> Segment:
    """A fresh shared segment of at least ``nbytes``.

    A full tmpfs raises ``ENOSPC`` here, which the caller's degradation
    handler routes to the pickle path.  Successful creations are charged
    to the resource governor by their actual size and released on
    unlink.
    """
    shm = Segment.create(nbytes)
    resources.governor().charge(shm.size)
    return shm


def reap_stale_segments(creator_pids, exited: bool = False) -> list[str]:
    """Crash audit: reclaim every segment a dead world owned.

    All ``rps_``-named segments (arena buckets, stash payloads, status
    boards) whose embedded creator pid is in ``creator_pids`` and no
    longer running are unlinked by name.  Ownership of a segment is
    transferable between a run's processes, so the sweep runs only
    after the whole world is down — the caller passes the pids it just
    joined or reaped.  Pid reuse is guarded by a liveness re-check: a
    still-running pid is skipped (a leak beats unlinking live data).
    ``exited=True`` skips it, for a caller that knows the pids have
    exited but may not be reaped yet (a zombie still answers ``kill``).
    Returns the removed names.
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
        if not exited:
            try:
                os.kill(pid, 0)
                continue
            except ProcessLookupError:
                pass
            except PermissionError:  # pragma: no cover - reused pid, other user
                continue
        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:  # raced removal
            continue
        removed.append(name)
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
        self._free: dict[int, deque[Segment]] = {}
        self._free_bytes = 0
        self._leases: weakref.WeakSet[_SegmentLease] = weakref.WeakSet()
        self.created = 0
        self.reused = 0
        self.adopted = 0

    def acquire(self, nbytes: int) -> Segment:
        """A mapped segment of at least ``nbytes`` (caller owns it)."""
        bucket = _bucket_of(nbytes)
        box = self._free.get(bucket)
        if box:
            self.reused += 1
            self._free_bytes -= bucket
            return box.popleft()
        self.created += 1
        return create_segment(bucket)

    def recycle(self, shm: Segment) -> None:
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

    def adopt(self, shm: Segment) -> None:
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


def _close_and_unlink(shm: Segment) -> None:
    nbytes = shm.size
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a view still exports the buffer
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        return  # whoever unlinked it released its bytes
    # Release by the unlinker, not the creator: ownership of a segment is
    # transferable between a world's processes, so a per-process ledger
    # can go negative while the sum over the world nets out correctly.
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
    # only closes the child's inherited mappings (a Segment never
    # unlinks on its own).
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

    def __init__(self, arena: SegmentArena, shm: Segment):
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
    segments: list[Segment],
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
    created — tmpfs ``ENOSPC``/``ENOMEM`` — the array is left in place so
    it rides the pickle stream instead, bit-identically; the fallback is
    recorded on the resource governor.  Any other ``OSError`` still
    propagates.
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
                shm = create_segment(src.nbytes)
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
        lease = _SegmentLease(arena, Segment(obj.name))
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
    adopting it (no :class:`Segment` handle, nothing to unlink)."""
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
        # The name is all it takes: the size for the governor comes from
        # the tmpfs entry, so the segment is never opened or mapped.
        try:
            nbytes = os.stat(f"{_SHM_DIR}/{obj.name}").st_size
            _posixshmem.shm_unlink("/" + obj.name)
        except FileNotFoundError:  # already reclaimed
            return
        resources.governor().release(nbytes)
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
) -> tuple[Any, Segment | None]:
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
    status:
        Optional :class:`repro.mpi.status.StatusBoard`: blocking receives
        consult it when the abort event trips, so a recorded rank death
        surfaces as :class:`RankDeadError` (naming the dead rank and its
        last collective) instead of a generic :class:`DeadlockError`.
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
        status=None,
    ):
        if not timeout > 0:  # NaN too
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._rank = rank
        self._inboxes = inboxes
        self._abort = abort_event
        self._run_seq = run_seq
        self.status = status
        self._stash: dict[Hashable, deque[Any]] = {}

    @property
    def arena(self) -> SegmentArena:
        return process_arena()

    def put(self, key: Hashable, payload: Any, dst: int | None = None) -> None:
        if dst is None:
            raise ValueError(
                "ProcessTransport.put requires the destination world rank"
            )
        arena = self.arena
        segments: list[Segment] = []
        try:
            blob = pickle.dumps(
                (self._run_seq, key, encode_payload(payload, segments, arena))
            )
        except Exception:
            for shm in segments:
                arena.recycle(shm)
            raise
        # Ownership of the segments now rides with the message; dropping
        # our Segment handles closes this process's mappings only.
        self._inboxes[dst].put(blob)

    def get(self, key: Hashable) -> Any:
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

    # -- end-of-run hygiene --------------------------------------------------

    def end_run(self) -> None:
        """Release per-run resources: the leases of undelivered messages.

        Called by the executor worker when the rank function finishes
        (successfully or not).  The arena itself survives — pooled workers
        keep it warm across runs.
        """
        for box in self._stash.values():
            for payload in box:
                _release_views(payload)
        self._stash.clear()


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
