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
  dies (or :func:`release_view` is called), so large TTM operands are never
  copied on the receive side.
* **Huge-page mappings** (:class:`HugePageSegment`): collective windows
  and arena segments at or above :data:`HUGE_MIN_BYTES` are backed by
  files on the host's hugetlbfs mount when huge pages are reserved,
  cutting TLB pressure on the multi-MiB ring and reduce exchanges; every
  attempt falls back transparently to POSIX shm when the mmap fails, and
  :data:`HUGEPAGE_STATS` / ``CollectiveWindow.backing`` record which
  mapping was used.  ``REPRO_SPMD_HUGEPAGES`` selects the mode (``auto``
  default / ``0`` off / a directory path to use as the mount).
* **Collective windows** (:class:`CollectiveWindow`, :class:`MatrixWindow`):
  each communicator can open preallocated shm windows (MPI-3 RMA style)
  that every collective writes into directly — ``barrier``/``bcast``/
  ``gather``/``allgather``/``reduce``/``allreduce``/
  ``reduce_scatter_block`` through a P-slot window, ``scatter``/
  ``alltoall`` through a P×P pair-slotted one — one barrier-fenced
  single-copy exchange instead of O(P) point-to-point segment hops
  through rank 0.  Initial slots are sized from the communicator's first
  payload (``REPRO_SPMD_WINDOW_SLOT`` pins them instead).  Every fence
  is split into a non-blocking publish half (``post_size_nowait`` /
  ``commit_nowait``) and a wait half (``wait_posted`` / ``wait_written``)
  so the communicator's non-blocking collectives can deposit their
  contribution at post time and defer the fence spins to ``wait()``,
  overlapping them with local compute.

Poisoning uses a shared event: when any rank dies its transport sets the
event, and every sibling blocked in :meth:`ProcessTransport.get` (or
spinning on a window fence) notices within one poll interval and raises
:class:`DeadlockError`.
"""

from __future__ import annotations

import _posixshmem
import errno
import mmap
import os
import pickle
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

#: Environment switch: ``0`` disables segment reuse (create/unlink per
#: message, the pre-arena behaviour — useful when bisecting).
ARENA_ENV_VAR = "REPRO_SHM_ARENA"

#: Environment switch: ``0`` disables collective windows (collectives fall
#: back to the point-to-point implementation).
WINDOWS_ENV_VAR = "REPRO_SPMD_WINDOWS"

#: Fixed initial per-rank window slot in bytes; ``0`` (the default) sizes
#: the first window of each communicator adaptively from the payload of
#: its first windowed exchange.
WINDOW_SLOT_ENV_VAR = "REPRO_SPMD_WINDOW_SLOT"

#: Smallest arena bucket (one page), per-bucket free-list cap, and the
#: total bytes an arena may keep pinned in its free lists — recycles
#: beyond the budget unlink instead, so a sweep of huge messages cannot
#: leave gigabytes of dead segments parked in /dev/shm.
_BUCKET_MIN = 4096
_BUCKET_MAX_FREE = 8
_ARENA_MAX_FREE_BYTES = 128 << 20

#: Smallest per-rank slot of a collective window (one page).  The first
#: exchange on a communicator sizes the initial slot from its own payload
#: (see :func:`window_slot_for`), so scalar-only communicators get
#: page-sized windows instead of the former fixed 256 KiB slots; windows
#: still grow in power-of-two buckets when a later payload does not fit.
WINDOW_MIN_SLOT = 4096

#: Huge-page backing for large mappings: ``auto`` (the default — use the
#: host's hugetlbfs mount when huge pages are reserved), ``0`` (never), or
#: an absolute directory path (treat that directory as the mount; lets
#: tests and pre-mounted deployments exercise the file-backed path).
HUGEPAGES_ENV_VAR = "REPRO_SPMD_HUGEPAGES"

#: Only mappings at least one huge page wide (2 MiB on x86-64) are worth
#: the hugetlbfs round-trip; smaller segments stay on POSIX shm.
HUGE_MIN_BYTES = 2 << 20

#: Per-process counters recording which mapping each large segment got:
#: ``mapped`` counts hugetlbfs-backed segments, ``fallbacks`` counts
#: attempts that fell back to POSIX shm because the mmap failed (pages
#: exhausted, mount vanished).  Reset-free — tests snapshot deltas.
HUGEPAGE_STATS = {"mapped": 0, "fallbacks": 0}

#: Name prefix routing attaches: segments created on hugetlbfs carry it,
#: so the receiving process knows which substrate to open by name alone.
_HUGE_PREFIX = "rphp_"

#: Name prefix for POSIX shm segments (and status boards — see
#: ``repro.faults.status``).  Like huge-page names, ``rps_`` names embed
#: the creator's pid, which is what lets :func:`reap_stale_segments`
#: audit /dev/shm after a rank crash: only segments whose creator is a
#: *dead* process of this run are reclaimed.
_SHM_PREFIX = "rps_"

#: Where POSIX shm segments surface as files on Linux (the audit sweeps
#: this directory; on hosts without it the sweep is skipped).
_SHM_DIR = "/dev/shm"

_HP_DIR_CACHE: dict[str, str | None] = {}
_HP_PAGE_CACHE: dict[str, int] = {}


def hugepage_size(directory: str) -> int:
    """The page size of the mount behind ``directory``, in bytes.

    hugetlbfs sets the filesystem block size to its huge page size
    (which is per-mount — a ``pagesize=1G`` mount coexists with 2 MiB
    defaults), so ``statvfs`` reports the right granularity for file
    rounding on any mount; an ordinary directory (the knob's path
    override) reports its small block size and is floored at one page.
    """
    page = _HP_PAGE_CACHE.get(directory)
    if page is None:
        try:
            page = max(int(os.statvfs(directory).f_bsize), 4096)
        except OSError:  # pragma: no cover - directory vanished
            page = 2 << 20
        _HP_PAGE_CACHE[directory] = page
    return page


def _mount_has_free_pages(directory: str) -> bool:
    """Whether the mount behind ``directory`` has pages left to reserve.

    ``statvfs`` reports the *mount's own* pool (``f_bavail`` free blocks
    of its page size) — unlike ``/proc/meminfo``'s ``HugePages_Free``,
    which only counts the default hstate and would wrongly disable a
    ``pagesize=1G`` mount while 2 MiB pages are exhausted.
    """
    try:
        return os.statvfs(directory).f_bavail > 0
    except OSError:  # pragma: no cover - mount vanished
        return False


def _hugepage_mount(mode: str) -> str | None:
    """The directory behind huge-page segment *names* (no free-page gate).

    Cached per knob value, so pooled workers re-resolve after an
    environment change only when the knob itself changed.  ``0``
    disables; a directory path uses that directory as-is (and must
    exist and be writable — a typo'd path is a configuration error, not
    a silent fallback); ``auto``/``1`` picks the first writable
    ``hugetlbfs`` mount from ``/proc/mounts``; anything else is
    rejected.  Attaching an *existing* segment only needs this mount —
    mapping an already-created file reserves no new pages, so attaches
    must not be gated on ``HugePages_Free`` (the creator may have
    consumed them all).
    """
    if mode in _HP_DIR_CACHE:
        return _HP_DIR_CACHE[mode]
    directory: str | None = None
    if mode == "0":
        directory = None
    elif mode.startswith(("/", ".")):
        if not (os.path.isdir(mode) and os.access(mode, os.W_OK)):
            raise ValueError(
                f"{HUGEPAGES_ENV_VAR}={mode!r} is not a writable directory"
            )
        directory = mode
    elif mode in ("auto", "1"):
        try:
            with open("/proc/mounts") as fh:
                for line in fh:
                    fields = line.split()
                    if len(fields) >= 3 and fields[2] == "hugetlbfs":
                        mount = fields[1]
                        if os.path.isdir(mount) and os.access(mount, os.W_OK):
                            directory = mount
                            break
        except OSError:  # pragma: no cover - /proc unreadable
            directory = None
    else:
        raise ValueError(
            f"invalid {HUGEPAGES_ENV_VAR} value {mode!r}: "
            f"use 'auto', '0', or a directory path"
        )
    _HP_DIR_CACHE[mode] = directory
    return directory


def _hugepage_mode() -> str:
    return str(default_for("hugepages")).strip() or "auto"


def hugepage_dir() -> str | None:
    """Directory for *new* huge-page segments, or ``None`` when disabled.

    In auto mode a fresh mapping needs reserved pages, so the mount's
    free-page count is consulted per call (reservations come and go);
    the path override skips the gate — an ordinary directory needs no
    reserved pages at all.
    """
    mode = _hugepage_mode()
    directory = _hugepage_mount(mode)
    if directory is None:
        return None
    if not mode.startswith(("/", ".")) and not _mount_has_free_pages(directory):
        return None
    return directory


class HugePageSegment:
    """A shared segment backed by a file in the hugetlbfs mount.

    Mirrors the slice of :class:`multiprocessing.shared_memory.SharedMemory`
    the transport uses (``name``/``size``/``buf``/``close``/``unlink``),
    so segments of either substrate flow through the arena, the message
    headers, and the collective windows interchangeably.  File-backed
    mappings on hugetlbfs are huge-page-backed without ``MAP_HUGETLB``;
    pointing :func:`hugepage_dir` at an ordinary directory (the path form
    of the knob) exercises the identical code path on normal pages.
    """

    def __init__(self, name: str, create: bool = False, size: int = 0):
        # Creation goes through hugepage_dir() (free-page gated) in
        # create_segment(); attaching by name only needs the mount.
        directory = _hugepage_mount(_hugepage_mode())
        if directory is None:
            raise FileNotFoundError(f"no huge-page directory to open {name!r}")
        self._path = os.path.join(directory, name)
        self.name = name
        self._closed = False
        if create:
            fd = os.open(self._path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        else:
            fd = os.open(self._path, os.O_RDWR)
        try:
            if create:
                page = hugepage_size(directory)
                size = -(-size // page) * page
                os.ftruncate(fd, size)
            else:
                size = os.fstat(fd).st_size
            # On hugetlbfs the reservation happens here: mmap raises
            # ENOMEM when the host cannot back the mapping, which is the
            # signal create_segment() turns into a transparent fallback.
            self._mmap = mmap.mmap(fd, size)
        except BaseException:
            os.close(fd)
            if create:
                try:
                    os.unlink(self._path)
                except FileNotFoundError:  # pragma: no cover - raced unlink
                    pass
            raise
        os.close(fd)
        self.size = size
        self._buf: memoryview | None = memoryview(self._mmap)

    @property
    def buf(self) -> memoryview:
        assert self._buf is not None
        return self._buf

    def close(self) -> None:
        """Drop this process's mapping (never the file — see unlink)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._buf is not None:
                self._buf.release()
                self._buf = None
            self._mmap.close()
        except BufferError:  # pragma: no cover - a view still exports it;
            pass  # the mapping is reclaimed when the last view dies

    def unlink(self) -> None:
        """Remove the backing file; mappings stay valid until closed.

        Raises ``FileNotFoundError`` when the file is already gone —
        matching ``SharedMemory.unlink`` so the accounting in
        :func:`_close_and_unlink` treats both substrates identically
        (the process that actually removed the file released its bytes).
        """
        os.unlink(self._path)

    def __del__(self):  # pragma: no cover - exercised via GC
        try:
            self.close()
        except Exception:
            pass


#: Huge-page creation failures that mean "this substrate cannot back the
#: mapping here and now" and warrant the transparent POSIX-shm fallback:
#: no reservable pages (ENOMEM), mount full (ENOSPC), or a mount this
#: user cannot write after all (EACCES/EPERM).  Anything else — EINVAL,
#: EMFILE, ... — is a real bug and must surface, not be swallowed as a
#: silent fallback.
_HUGE_FALLBACK_ERRNOS = frozenset(
    {errno.ENOMEM, errno.ENOSPC, errno.EACCES, errno.EPERM}
)


def create_segment(nbytes: int, purpose: str = "segment", huge: bool = True):
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

    Large requests — at least :data:`HUGE_MIN_BYTES` *and* one page of
    the backing mount (sizes are rounded up to whole pages, so smaller
    requests would waste most of a page on a ``pagesize=1G`` mount) —
    are tried on the huge-page substrate first when :func:`hugepage_dir`
    provides one, cutting TLB pressure on the multi-MiB windows and
    arena buckets the distributed kernels exchange, and fall back
    transparently to POSIX shm when the mmap hits a resource limit;
    :data:`HUGEPAGE_STATS` records which mapping each request got.
    ``huge=False`` keeps the segment on POSIX shm whatever its size.
    """
    gov = resources.governor()
    gov.gate(purpose, nbytes)
    if huge and nbytes >= HUGE_MIN_BYTES:
        directory = hugepage_dir()
        if directory is not None and nbytes >= hugepage_size(directory):
            name = f"{_HUGE_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
            try:
                seg = HugePageSegment(name, create=True, size=nbytes)
            except OSError as exc:
                if exc.errno not in _HUGE_FALLBACK_ERRNOS:
                    raise
                HUGEPAGE_STATS["fallbacks"] += 1
            else:
                HUGEPAGE_STATS["mapped"] += 1
                gov.charge(seg.size)
                return seg
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


def attach_segment(name: str):
    """Open an existing segment by name, on whichever substrate created it
    (huge-page names carry a routing prefix)."""
    if name.startswith(_HUGE_PREFIX):
        return HugePageSegment(name)
    return shared_memory.SharedMemory(name=name)


def segment_backing(segment) -> str:
    """``"hugetlb"`` or ``"shm"`` — which substrate backs ``segment``."""
    return "hugetlb" if isinstance(segment, HugePageSegment) else "shm"


def reap_stale_hugepage_segments(creator_pids) -> list[str]:
    """Unlink huge-page segment files left behind by dead rank workers.

    POSIX shm segments leaked by a killed worker are eventually reclaimed
    by multiprocessing's resource tracker; hugetlbfs files have no such
    net, and a leaked multi-MiB file pins its reserved pages until
    someone removes it (starving every later auto-mode run).  Segment
    names embed the creator's pid; the sweep is scoped to
    ``creator_pids`` — the worker pids the calling executor just joined —
    so concurrent runs sharing the mount are never touched (ownership is
    transferable between a run's processes, but never across runs).  A
    liveness re-check guards against pid reuse: a still-running pid is
    skipped (conservative — a leak beats unlinking live data).  Returns
    the removed names.
    """
    creator_pids = {int(p) for p in creator_pids if p is not None}
    creator_pids.discard(os.getpid())
    if not creator_pids:
        return []
    try:
        mount = _hugepage_mount(_hugepage_mode())
    except ValueError:  # misconfigured knob: nothing we can sweep
        return []
    if mount is None:
        return []
    removed = []
    try:
        names = os.listdir(mount)
    except (FileNotFoundError, NotADirectoryError):  # pragma: no cover
        return []  # mount vanished
    for name in names:
        if not name.startswith(_HUGE_PREFIX):
            continue
        try:
            pid = int(name[len(_HUGE_PREFIX):].split("_", 1)[0])
        except ValueError:
            continue
        if pid not in creator_pids:
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            try:
                os.unlink(os.path.join(mount, name))
                removed.append(name)
            except FileNotFoundError:  # pragma: no cover - raced removal
                pass
        except PermissionError:  # pragma: no cover - reused pid, other user
            pass
    return removed


def reap_stale_segments(creator_pids) -> list[str]:
    """General crash audit: reclaim every segment a dead world owned.

    Extends :func:`reap_stale_hugepage_segments` to POSIX shm: all
    ``rps_``-named segments (arena buckets, stash payloads, collective
    windows, status boards) whose embedded creator pid is in
    ``creator_pids`` and no longer running are attached and unlinked.
    Attaching before unlinking keeps the multiprocessing resource
    tracker balanced (it registers on attach and unregisters on
    unlink), so no leak warnings fire at interpreter exit.  Ownership
    of a segment is transferable between a run's processes, so the
    sweep runs only after the whole world is down — the caller passes
    the pids it just joined or reaped.  Returns the removed names.
    """
    creator_pids = {int(p) for p in creator_pids if p is not None}
    creator_pids.discard(os.getpid())
    removed = reap_stale_hugepage_segments(creator_pids)
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


def window_slot_for(nbytes: int, base: int = WINDOW_MIN_SLOT) -> int:
    """Smallest power-of-two multiple of ``base`` holding ``nbytes``."""
    slot = max(base, WINDOW_MIN_SLOT)
    while slot < nbytes:
        slot <<= 1
    return slot


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

    def __init__(self, enabled: bool | None = None):
        if enabled is None:
            enabled = bool(default_for("arena"))
        self.enabled = enabled
        self._free: dict[int, deque[shared_memory.SharedMemory]] = {}
        self._free_bytes = 0
        self._leases: weakref.WeakSet[_SegmentLease] = weakref.WeakSet()
        self.created = 0
        self.reused = 0
        self.adopted = 0

    def acquire(
        self, nbytes: int, huge: bool = True
    ) -> shared_memory.SharedMemory:
        """A mapped segment of at least ``nbytes`` (caller owns it).

        Buckets at or above :data:`HUGE_MIN_BYTES` come from the
        huge-page substrate when the host provides one (see
        :func:`create_segment`); either way the segment circulates
        through the same free lists (``huge=False``: POSIX shm only).
        """
        bucket = _bucket_of(nbytes)
        box = self._free.get(bucket, ())
        for shm in box:
            if huge or not isinstance(shm, HugePageSegment):
                box.remove(shm)
                self.reused += 1
                self._free_bytes -= bucket
                return shm
        self.created += 1
        return create_segment(bucket, purpose="arena", huge=huge)

    def recycle(self, shm: shared_memory.SharedMemory) -> None:
        """Return an owned segment to the free list (or unlink it)."""
        bucket = _BUCKET_MIN
        while bucket * 2 <= shm.size:
            bucket *= 2
        box = self._free.setdefault(bucket, deque())
        if (
            self.enabled
            and len(box) < _BUCKET_MAX_FREE
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
    garbage-collected or :func:`release_view` is called.  The buffer is
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


def release_view(obj: Any) -> None:
    """Explicitly release the segment lease behind a received view, if any."""
    if isinstance(obj, ShmArrayView):
        obj.release()


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
    huge: bool = True,
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
    still propagates.  ``huge=False`` stages on POSIX shm only.
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
                shm = arena.acquire(src.nbytes, huge)
            else:
                shm = create_segment(src.nbytes, purpose="arena", huge=huge)
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
        return tuple(encode_payload(x, segments, arena, huge) for x in obj)
    if isinstance(obj, list):
        return [encode_payload(x, segments, arena, huge) for x in obj]
    if isinstance(obj, dict):
        items = obj.items()
        return {k: encode_payload(v, segments, arena, huge) for k, v in items}
    return obj


def decode_payload(obj: Any, arena: SegmentArena) -> Any:
    """Inverse of :func:`encode_payload` (the receive fast path).

    Segment-backed arrays come back as read-only :class:`ShmArrayView`
    instances — no bytes are copied; the segment is recycled into
    ``arena`` when the last view dies.
    """
    if isinstance(obj, ShmHeader):
        lease = _SegmentLease(arena, attach_segment(obj.name))
        return ShmArrayView(lease, obj.shape, obj.dtype, obj.order)
    if isinstance(obj, tuple):
        return tuple(decode_payload(x, arena) for x in obj)
    if isinstance(obj, list):
        return [decode_payload(x, arena) for x in obj]
    if isinstance(obj, dict):
        return {k: decode_payload(v, arena) for k, v in obj.items()}
    return obj


def _map_borrowed(name: str, access: int) -> mmap.mmap:
    """Map a POSIX shm segment another process owns, whole, without
    adopting it (no ``SharedMemory`` handle, no resource-tracker entry)."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0)
    try:
        return mmap.mmap(fd, 0, access=access)
    finally:
        os.close(fd)


def decode_borrowed(obj: Any) -> Any:
    """Map segments the *sender still owns* copy-on-write.

    Used for pool task arguments: the dispatching parent stages them in
    its own arena once, on POSIX shm (a private mapping of a hugetlbfs
    file would reserve its whole length in huge pages, in every rank),
    and every worker maps that segment ``MAP_PRIVATE``, never unlinking
    or adopting it.  The rank gets a private writable array — a write
    never reaches the parent, another rank or the next run — but pays
    only for the pages it touches.  Each array owns its mapping; the
    worker drops them before it reports, because the parent then recycles
    the segments and unwritten pages would show the next tenant's bytes.
    """
    if isinstance(obj, ShmHeader):
        return np.ndarray(
            obj.shape, dtype=obj.dtype, order=obj.order,
            buffer=_map_borrowed(obj.name, mmap.ACCESS_COPY),
        )
    if isinstance(obj, tuple):
        return tuple(decode_borrowed(x) for x in obj)
    if isinstance(obj, list):
        return [decode_borrowed(x) for x in obj]
    if isinstance(obj, dict):
        return {k: decode_borrowed(v) for k, v in obj.items()}
    return obj


def release_payload(obj: Any) -> None:
    """Unlink every shared-memory segment referenced by an encoded payload.

    Used to reclaim segments of messages that were never delivered (runs
    that ended with undrained inboxes, stale pooled-run messages): the
    send transferred ownership to the message, so with the receiver gone
    somebody must unlink the name.
    """
    if isinstance(obj, ShmHeader):
        try:
            shm = attach_segment(obj.name)
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
    buffers of ``value`` once to one arena segment (POSIX shm only) so
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
        shm = arena.acquire(total, huge=False)
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
    instead of the O(P) point-to-point hops of the relayed collectives.

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
    total-store-order guarantee of x86-64 (the platform this toolchain
    targets); on architectures with weaker memory models (aarch64) the
    plain stores carry no fence, so set ``REPRO_SPMD_WINDOWS=0`` there to
    route collectives through the queue-backed point-to-point path, whose
    ordering the OS guarantees.
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
        #: Which substrate maps the window: ``"hugetlb"`` when the segment
        #: lives on the hugetlbfs mount, ``"shm"`` otherwise.  Recorded so
        #: benchmarks and tests can tell whether the huge-page request was
        #: honoured or transparently fell back.
        self.backing = segment_backing(shm)

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
        # Multi-MiB windows ask for huge-page backing (transparent shm
        # fallback); fresh segments of either substrate are zero-filled by
        # the OS, so all flags start at 0 — exactly "sequence 0 complete".
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
            shm = attach_segment(name)
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
    windows:
        Collective-window override: ``True``/``False`` force the window
        fast path on/off; ``None`` (default) consults
        ``REPRO_SPMD_WINDOWS``.
    window_slot:
        Fixed initial window slot in bytes; ``0`` sizes the first window
        of each communicator from its first payload; ``None`` consults
        ``REPRO_SPMD_WINDOW_SLOT`` (default adaptive).
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
        windows: bool | None = None,
        window_slot: int | None = None,
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
        if windows is None:
            windows = bool(default_for("windows"))
        self.windows_enabled = windows
        if sanitize is None:
            sanitize = int(default_for("sanitize"))
        self.sanitize = sanitize
        if window_slot is None:
            window_slot = int(default_for("window_slot"))
        if window_slot < 0:
            raise ValueError(
                f"window_slot must be non-negative, got {window_slot}"
            )
        self._window_slot = window_slot

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
        """Slot size (bytes) for a window that must hold ``needed`` bytes.

        Adaptive by default: the bucket covering ``needed`` (at least one
        page), so the first exchange sizes the window.  A fixed
        ``window_slot`` knob raises the floor instead.
        """
        base = self._window_slot if self._window_slot > 0 else WINDOW_MIN_SLOT
        return window_slot_for(needed, base)

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
