"""Message transports for the simulated MPI runtime.

A *transport* moves opaque payloads between ranks through per-(communicator,
source, destination, tag) mailboxes.  Delivery is FIFO per mailbox, which
matches MPI's non-overtaking guarantee for messages sent on the same
(source, destination, tag, communicator) tuple.

Two implementations exist:

* :class:`ThreadTransport` — the in-process store used by the thread
  executor backend: one dict of deques guarded by a condition variable,
  shared by all rank threads.
* :class:`~repro.mpi.process_transport.ProcessTransport` — the
  cross-process store used by the process executor backend: one OS-level
  inbox queue per rank, with large array payloads parked in POSIX shared
  memory.

Blocking receives time out after ``timeout`` seconds and raise
:class:`~repro.mpi.errors.DeadlockError`; an SPMD program that deadlocks in
real MPI hangs forever, but a test suite should fail fast instead.
"""

from __future__ import annotations

import abc
import math
import threading
from collections import defaultdict, deque
from typing import Any, Hashable

from repro import resources
from repro.mpi.errors import DeadlockError


class TransportBase(abc.ABC):
    """Interface every executor-backend transport must implement.

    Keys are opaque hashables built by the communicator; ``dst`` is the
    *world rank* of the receiving process so transports that physically
    route messages (one inbox per rank) know where to deliver.  The
    thread transport ignores it — all ranks share one mailbox store.
    Point-to-point messages and every collective's exchange round ride
    the same :meth:`put`/:meth:`get` mailboxes: in a round each member
    sends one message to each peer, and receiving one from each peer is
    the fence.
    """

    timeout: float

    #: Whether :meth:`put` already isolates sender and receiver (the
    #: payload is serialized or copied into shared memory on the way out).
    #: When True the communicator skips its defensive pre-send copy; the
    #: thread transport delivers by reference and keeps the default.
    copies_on_send = False

    def note_collective(self, op: str, seq: int) -> None:
        """Record the collective this rank is entering (liveness context).

        No-op by default; the process transport writes it to the shared
        status board so rank-death post-mortems can name the dead rank's
        last collective.
        """

    @abc.abstractmethod
    def put(self, key: Hashable, payload: Any, dst: int | None = None) -> None:
        """Deposit a message (non-blocking; mailboxes are unbounded)."""

    @abc.abstractmethod
    def get(self, key: Hashable) -> Any:
        """Block until a message is available at ``key`` and pop it.

        Only the rank that owns the destination side of ``key`` may call
        this (always true for the communicator's usage).
        """

    @abc.abstractmethod
    def abort(self, exc: BaseException) -> None:
        """Poison the transport: wake all waiters and make them re-raise.

        Called by the executor when any rank dies, so sibling ranks blocked
        on a receive from the dead rank fail promptly instead of timing out.
        """

    @abc.abstractmethod
    def pending(self) -> int:
        """Number of undelivered messages visible to this rank."""


class ThreadTransport(TransportBase):
    """Mailbox-based message store shared by all rank threads of one run."""

    def __init__(self, timeout: float = 60.0):
        if not timeout > 0:  # NaN too
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._boxes: dict[Hashable, deque[Any]] = defaultdict(deque)
        self._cond = threading.Condition()
        self._aborted: BaseException | None = None

    def abort(self, exc: BaseException) -> None:
        with self._cond:
            self._aborted = exc
            self._cond.notify_all()

    def put(self, key: Hashable, payload: Any, dst: int | None = None) -> None:
        with self._cond:
            self._boxes[key].append(payload)
            self._cond.notify_all()

    def get(self, key: Hashable) -> Any:
        with self._cond:
            while True:
                resources.check_deadline(f"receive on {key!r}")
                if self._aborted is not None:
                    raise DeadlockError(
                        f"transport aborted while waiting on {key!r}: "
                        f"{self._aborted!r}"
                    )
                box = self._boxes.get(key)
                if box:
                    payload = box.popleft()
                    if not box:
                        # Keep the dict small across long runs.
                        del self._boxes[key]
                    return payload
                # A run deadline shortens the wait so the cooperative
                # check above fires promptly; only an *un*-shortened wait
                # expiring means the transport itself went silent.
                interval = self.timeout
                left = resources.remaining_deadline()
                if left is not None:
                    interval = min(interval, max(left, 0.0) + 0.005)
                # An infinite timeout waits unbounded (a finite wait of
                # ``inf`` seconds overflows the platform's time_t).
                bounded = None if interval == math.inf else interval
                if not self._cond.wait(bounded) and interval >= self.timeout:
                    raise DeadlockError(
                        f"receive on {key!r} timed out after "
                        f"{self.timeout:g}s (likely mismatched send/recv or "
                        f"collective ordering)"
                    )

    def pending(self) -> int:
        """Number of undelivered messages (should be 0 at the end of a run)."""
        with self._cond:
            return sum(len(box) for box in self._boxes.values())

