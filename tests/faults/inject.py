"""Faults for the failure-path tests, installed by the test program itself.

The runtime has no fault hook.  A rank function runs in its rank's own
process (a warm-pool worker, a one-shot worker) or, on the thread
backend, in its rank's thread of the test process, so a test wraps its
rank function in :class:`Faulty`, which patches the runtime in that rank
for the length of the run and undoes the patch afterwards (warm workers
are reused).  A :class:`Fault` fires on the ``nth`` hit of its site in
one rank's run:

* an op name (``"allreduce"``, ``"barrier"``, ...): on entry to that
  collective, once it is the rank's last-known collective on the status
  board;
* ``"dispatch"``: at rank start, before the rank function runs;
* ``"send"``: in a process rank's send, after the payload's segments
  are staged and before the message is put in the peer's inbox;
* ``"recv"``: at the start of a process rank's receive;
* ``"arena"``: a process rank's shared-memory allocation, the staging
  of its returned value included.

Kinds: ``"crash"`` SIGKILLs a rank process (on the thread backend it
raises :class:`InjectedFault`: a SIGKILL would take the test runner
down), ``"raise"`` raises :class:`InjectedFault`, ``"enospc"`` raises the
``OSError`` a full tmpfs raises, and ``"stall"`` holds the rank, polling
the run deadline (without a deadline it sleeps ``delay`` seconds).
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import resources
from repro.mpi import backends, process_transport
from repro.mpi.process_transport import ProcessTransport
from repro.mpi.transport import TransportBase


class InjectedFault(RuntimeError):
    """A ``raise`` fault fired, or a ``crash`` on the thread backend."""


@dataclass(frozen=True)
class Fault:
    """``kind`` on the ``nth`` hit of ``site`` in one rank's run."""

    site: str
    kind: str
    rank: int | None = None  # None: every rank
    nth: int = 1
    delay: float = 0.05


def refuse_arena(n: int) -> tuple[Fault, ...]:
    """A full ``/dev/shm``: the first ``n`` arena allocations of each
    rank's run fail with ``ENOSPC``."""
    return tuple(Fault("arena", "enospc", nth=nth) for nth in range(1, n + 1))


#: The conditions ``pytest --constrained NAME`` runs every SPMD run under.
CONSTRAINED = {
    "full-shm": refuse_arena(3),
    "full-shm-rank0": refuse_arena(3) + (Fault("arena", "enospc", 0, nth=4),),
    "full-shm-slow-recv": refuse_arena(3) + (Fault("recv", "stall", 1),),
}


class _RankFaults:
    """One rank's faults in one run, with its hit count per site."""

    def __init__(self, faults: list[Fault], rank: int, in_process: bool):
        self.faults = faults
        self.rank = rank
        self.in_process = in_process
        self.hits: dict[str, int] = {}

    def fire(self, site: str) -> None:
        hit = self.hits[site] = self.hits.get(site, 0) + 1
        for fault in self.faults:
            if fault.site == site and fault.nth == hit:
                self._trigger(fault, f"on rank {self.rank} at site {site!r} (hit #{hit})")

    def _trigger(self, fault: Fault, where: str) -> None:
        if fault.kind == "crash" and not self.in_process:
            os.kill(os.getpid(), signal.SIGKILL)
        if fault.kind == "enospc":
            raise OSError(errno.ENOSPC, f"injected enospc {where}")
        if fault.kind == "stall":
            if resources.active_deadline() is None:
                time.sleep(fault.delay)
                return
            while True:
                resources.check_deadline(f"injected stall {where}")
                time.sleep(0.02)
        raise InjectedFault(f"injected {fault.kind} {where}")


# -- the patch: installed while any rank of this process has faults -------

_local = threading.local()
_lock = threading.Lock()
_installed: list[tuple[Any, str, Any]] = []
_users = 0


def _fire(site: str) -> None:
    for faults in getattr(_local, "ranks", ()):
        faults.fire(site)


def _after(original: Callable) -> Callable:
    def note_collective(self, op, seq):
        original(self, op, seq)
        _fire(op)

    return note_collective


def _get(original: Callable) -> Callable:
    def get(self, key):
        _fire("recv")
        return original(self, key)

    return get


class _FiringInbox:
    def __init__(self, inbox):
        self._inbox = inbox

    def put(self, blob):
        _fire("send")
        self._inbox.put(blob)


def _put(original: Callable) -> Callable:
    def put(self, key, payload, dst=None):
        inboxes = self._inboxes
        self._inboxes = [_FiringInbox(inbox) for inbox in inboxes]
        try:
            return original(self, key, payload, dst)
        finally:
            self._inboxes = inboxes

    return put


def _create_segment(original: Callable) -> Callable:
    def create_segment(nbytes):
        _fire("arena")
        return original(nbytes)

    return create_segment


_PATCHES = [
    (TransportBase, "note_collective", _after),
    (ProcessTransport, "note_collective", _after),
    (ProcessTransport, "get", _get),
    (ProcessTransport, "put", _put),
    (process_transport, "create_segment", _create_segment),
]


def _push(faults: _RankFaults) -> None:
    global _users
    with _lock:
        if _users == 0:
            for owner, name, wrap in _PATCHES:
                original = vars(owner)[name]
                _installed.append((owner, name, original))
                setattr(owner, name, wrap(original))
        _users += 1
    _local.ranks = [*getattr(_local, "ranks", ()), faults]


def _pop(faults: _RankFaults) -> None:
    global _users
    _local.ranks = [f for f in _local.ranks if f is not faults]
    with _lock:
        _users -= 1
        if _users == 0:
            while _installed:
                owner, name, original = _installed.pop()
                setattr(owner, name, original)


def _pop_after_staging(faults: _RankFaults) -> None:
    """Keep ``faults`` until the worker has staged the returned value.

    A failed run retires its workers, so a patch its staging never
    reaches dies with them.
    """
    original = backends.stage_value

    def stage_value(value, arena):
        backends.stage_value = original
        try:
            return original(value, arena)
        finally:
            _pop(faults)

    backends.stage_value = stage_value


class Faulty:
    """``fn`` with ``faults`` installed in every rank that runs it.

    Picklable when ``fn`` is, so a module-level rank function keeps
    riding the warm pool.
    """

    def __init__(self, fn: Callable, *faults: Fault):
        self.fn = fn
        self.faults = faults
        self._pid = os.getpid()

    def __call__(self, comm, *args):
        faults = _RankFaults(
            [f for f in self.faults if f.rank in (None, comm.rank)],
            comm.rank,
            in_process=os.getpid() == self._pid,
        )
        _push(faults)
        try:
            faults.fire("dispatch")
            value = self.fn(comm, *args)
        except BaseException:
            _pop(faults)
            raise
        if faults.in_process:
            _pop(faults)
        else:
            _pop_after_staging(faults)
        return value


@contextlib.contextmanager
def in_every_run(*faults: Fault):
    """Install ``faults`` in every SPMD run launched inside the block.

    A rank function already wrapped in :class:`Faulty` keeps exactly its
    own faults (``Faulty(fn)`` with none runs ``fn`` unconstrained).
    """
    runs = {cls: vars(cls)["run"] for cls in (backends.ThreadBackend, backends.ProcessBackend)}

    def wrap(original: Callable) -> Callable:
        def run(self, n_ranks, fn, *rest, **kwargs):
            if not isinstance(fn, Faulty):
                fn = Faulty(fn, *faults)
            return original(self, n_ranks, fn, *rest, **kwargs)

        return run

    for cls, original in runs.items():
        setattr(cls, "run", wrap(original))
    try:
        yield
    finally:
        for cls, original in runs.items():
            setattr(cls, "run", original)
