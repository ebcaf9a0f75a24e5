"""Simulated MPI communicator.

The API mirrors mpi4py where practical (``Get_rank``, ``Send``/``Recv`` for
NumPy buffers, lowercase object variants, ``allreduce``, ``split``...), so
the distributed algorithms read like ordinary MPI code.  Differences:

* Ranks are threads or forked processes (an executor-backend choice, see
  :mod:`repro.mpi.backends`); messages move by copy through a
  :class:`~repro.mpi.transport.TransportBase` implementation.
* Every operation *charges* a :class:`~repro.mpi.ledger.CostLedger` with the
  alpha-beta-gamma cost from the paper's Table I, enabling modeled-time
  measurements of the very runs the tests execute.
* Collectives move their bytes through per-communicator shared-memory
  windows on the process transport on x86-64 (every collective: one
  fence-ordered single-copy exchange) and fall back to point-to-point
  relays through group rank 0 elsewhere; either way their
  *charged* cost is the closed-form tree cost, identical on every member,
  not the cost of the implementation used to move the bytes.
* Non-blocking operations (``isend``/``irecv``/``isendrecv``,
  ``ireduce``/``iallreduce``/``ireduce_scatter_block``) defer completion
  to ``Request.wait()``: sends and window deposits are staged at post
  time, the blocking receives and fence waits — and every ledger charge —
  land at completion, so pipelined kernels overlap communication with
  compute while charging exactly what the blocking ops would.

Determinism: reductions fold contributions in group-rank order, so repeated
runs give bitwise-identical floating-point results.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro import resources
from repro.analysis.sanitizer import CollectiveCall, Sanitizer
from repro.mpi.errors import BufferMismatchError, CommunicatorError
from repro.mpi.ledger import CostLedger
from repro.mpi.process_transport import pack_collective, packed_nbytes
from repro.mpi.reduce_ops import SUM, ReduceOp
from repro.mpi.transport import TransportBase
from repro.perfmodel import collectives as cc


def _words_of(obj: Any) -> int:
    """Modeled message size in 8-byte words."""
    if isinstance(obj, np.ndarray):
        return max(1, math.ceil(obj.nbytes / 8))
    if isinstance(obj, (list, tuple)):
        return max(1, sum(_words_of(x) for x in obj))
    if isinstance(obj, dict):
        # Keys are tags (mode indices, field names) and ride in the
        # header; the values are the message body.
        return max(1, sum(_words_of(v) for v in obj.values()))
    return 1


def _copy_payload(obj: Any) -> Any:
    """Copy mutable payloads so sender and receiver never alias."""
    if isinstance(obj, np.ndarray):
        return np.array(obj, copy=True)
    return obj


def _identity(obj: Any) -> Any:
    return obj


class Request:
    """Handle for a nonblocking operation with deferred completion.

    ``wait()`` runs the deferred completion exactly once — any blocking
    receive/fence happens there, and that is also where the operation's
    ledger charge lands, so pipelined code charges exactly what the
    blocking ops would — and caches the result for repeated waits.
    ``test()`` reports whether the handle has completed; there is no
    background progress thread, so a request only completes inside
    ``wait()`` (or when the communicator force-completes it to recycle a
    non-blocking collective's window buffer).

    SPMD discipline: like the blocking collectives, the posts *and* the
    waits of non-blocking collectives must occur in the same order on
    every member relative to the communicator's other collectives.
    Under ``REPRO_SANITIZE >= 1`` the handle is strict MPI: a request
    never waited fails finalize (:class:`RequestLeakError`) and a second
    user ``wait()`` raises :class:`RequestStateError` even though the
    unsanitized runtime would serve it from the cache.
    """

    def __init__(
        self,
        wait_fn: Callable[[], Any],
        sanitizer: Sanitizer | None = None,
        record: Any = None,
    ):
        self._wait_fn = wait_fn
        self._done = False
        self._value: Any = None
        self._san = sanitizer
        self._record = record

    def wait(self) -> Any:
        if self._san is not None:
            self._san.user_wait(self._record)
        return self._force()

    def _force(self) -> Any:
        """Complete without user-wait accounting (runtime internal: the
        communicator force-completes pipelined rounds to recycle window
        buffers, which must not count as the user's one wait)."""
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value

    def test(self) -> bool:
        """Whether :meth:`wait` has completed.  (No true background progress.)"""
        return self._done


class Communicator:
    """A group of simulated ranks with point-to-point and collective ops."""

    def __init__(
        self,
        transport: TransportBase,
        ledger: CostLedger,
        comm_id: Hashable,
        members: Sequence[int],
        world_rank: int,
        sanitizer: Sanitizer | None = None,
        faults=None,
    ):
        members = tuple(members)
        if len(set(members)) != len(members):
            raise CommunicatorError(f"duplicate members in group: {members}")
        if world_rank not in members:
            raise CommunicatorError(
                f"world rank {world_rank} is not a member of group {members}"
            )
        self._transport = transport
        self._ledger = ledger
        self._comm_id = comm_id
        self._members = members
        self._world_rank = world_rank
        self._rank = members.index(world_rank)
        self._coll_seq = 0
        # Pre-send copy is only needed when the transport delivers by
        # reference (thread backend); copying transports already isolate
        # sender and receiver when they encode the payload.
        self._tx = (
            _identity
            if getattr(transport, "copies_on_send", False)
            else _copy_payload
        )
        # Lazily opened per-communicator collective windows (process
        # transport only): a P-slot window for the one-contribution-per-
        # rank collectives and a P×P pair-slotted one for scatter and
        # alltoall; the generation counter keys the name-exchange tags.
        self._win = None
        self._mwin = None
        self._win_gen = 0
        # Double-buffered non-blocking collective windows: posts alternate
        # between two dedicated window generations so round i+1 can be
        # posted while stragglers are still fencing round i.  (A single
        # window would deadlock the post-then-wait pipeline: round i+1's
        # reuse fence waits on `done` flags the other ranks only publish
        # at their wait of round i, which follows their own post of round
        # i+1.)  ``_nb_pending`` remembers this rank's outstanding request
        # per buffer so a third post force-completes the round it reuses.
        self._nb_wins: list[Any] = [None, None]
        self._nb_pending: list[Request | None] = [None, None]
        self._nb_toggle = 0
        # SPMD sanitizer (None when REPRO_SANITIZE=0): one per-rank
        # instance shared by every communicator of the rank, so request
        # bookkeeping and the last-collective deadlock context span
        # `split` children too.
        self._san = sanitizer
        self._san_sig: CollectiveCall | None = None
        # Fault injector (None unless REPRO_FAULTS / run_spmd(faults=) is
        # active): every collective entry fires its op-name site before
        # any protocol traffic, so injected failures land at a precise,
        # reproducible point in the collective schedule.  Shared across
        # `split` children like the sanitizer.
        self._faults = faults
        # Sub-communicators built by `group`, by their ranks here.
        self._groups: dict[tuple[int, ...], Communicator] = {}

    # -- identity ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._members)

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self.size

    @property
    def world_rank(self) -> int:
        return self._world_rank

    @property
    def ledger(self) -> CostLedger:
        return self._ledger

    def section(self, label: str):
        """Attribute subsequent charges (this thread) to ``label``."""
        return self._ledger.section(label)

    def add_flops(self, flops: int) -> None:
        """Charge local compute to this rank's modeled clock."""
        self._ledger.charge_flops(self._world_rank, flops)

    def note_memory(self, words: int) -> None:
        self._ledger.note_memory(self._world_rank, words)

    def _check_peer(self, peer: int, name: str) -> int:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"{name}={peer} out of range for communicator of size {self.size}"
            )
        return peer

    # -- SPMD sanitizer ------------------------------------------------------
    #
    # At REPRO_SANITIZE >= 1 every collective entry records a signature
    # (op, sequence number, root, reduction op, call site) and the group
    # cross-checks it before moving bytes.  On the window transport the
    # check costs one extra int64 (a digest of the signature) riding the
    # size fence that every exchange already performs; a mismatch then
    # triggers a full point-to-point signature exchange purely to build
    # the diagnostic.  On window-less transports (thread backend) the
    # full signatures travel an uncharged point-to-point all-to-all at
    # entry.  Both paths are symmetric — no rank plays collector — so
    # the verification itself can never introduce a new deadlock among
    # ranks that agree.  Note the exchange makes every verified
    # collective synchronizing on the point-to-point path (MPI always
    # permits collectives to synchronize, so portable programs are
    # unaffected).  Limitations: verification cannot pair calls that use
    # different window objects (e.g. ``alltoall`` against ``bcast``) or
    # diverging sequence numbers — those still deadlock, but the timeout
    # arrives annotated with this rank's last collective and call site.

    @property
    def sanitizer(self) -> Sanitizer | None:
        """The rank's sanitizer instance, or ``None`` at REPRO_SANITIZE=0."""
        return self._san

    def _san_enter(
        self,
        op: str,
        seq: int,
        root: int | None = None,
        reduce_op: ReduceOp | None = None,
        value: Any = None,
        windowed: bool = True,
    ) -> CollectiveCall | None:
        """Record entry into a collective; on window-less transports also
        run the symmetric signature exchange immediately.

        Also the per-collective fault/liveness hook (it runs at the top
        of *every* blocking collective, sanitizer on or off): the run
        deadline is checked cooperatively, the status board note makes
        this op the rank's last-known context for death post-mortems,
        and the injector fires the op-name site.
        """
        resources.check_deadline(op)
        self._transport.note_collective(op, seq)
        if self._faults is not None:
            self._faults.fire(op)
        if self._san is None:
            return None
        sig = self._san.collective(
            op, seq, self._rank, root=root, reduce_op=reduce_op, value=value
        )
        self._san_sig = sig
        if self.size > 1 and (
            not windowed or not self._transport.windows_enabled
        ):
            self._san_put_sigs(sig)
            self._san_collect_sigs(sig)
        return sig

    def _san_put_sigs(self, sig: CollectiveCall) -> None:
        """Deposit this rank's signature for every peer (uncharged)."""
        wire = sig.wire()
        for dst in range(self.size):
            if dst != self._rank:
                self._put_key(self._rank, dst, ("san", sig.seq), wire)

    def _san_collect_sigs(self, sig: CollectiveCall) -> None:
        """Collect every peer's signature for ``sig``'s sequence number
        and raise if any diverges from ours."""
        mine = sig.protocol_key()
        peers = []
        diverged = False
        for src in range(self.size):
            if src == self._rank:
                continue
            peer = CollectiveCall.from_wire(
                self._transport.get(self._key(src, self._rank, ("san", sig.seq)))
            )
            peers.append(peer)
            if peer.protocol_key() != mine:
                diverged = True
        if diverged:
            raise self._san.mismatch(sig, peers)

    def _san_check_window(self, win, sig: CollectiveCall | None) -> None:
        """Compare the digests every member posted on ``win``'s size
        fence; on mismatch exchange full signatures and raise."""
        if sig is None:
            return
        bad = win.digest_mismatch_ranks(sig.digest)
        if not bad:
            return
        # Every member observes the divergence (each compares all rows
        # against its own digest), so this recovery exchange is entered
        # by the whole group; tag by window round, which members of one
        # round share even if their collective sequence numbers drifted.
        tag = ("sanx", win.name, int(win.seq))
        wire = sig.wire()
        for dst in range(self.size):
            if dst != self._rank:
                self._put_key(self._rank, dst, tag, wire)
        peers = [
            CollectiveCall.from_wire(
                self._transport.get(self._key(src, self._rank, tag))
            )
            for src in range(self.size)
            if src != self._rank
        ]
        raise self._san.mismatch(sig, peers)

    def _make_request(self, op: str, wait_fn: Callable[[], Any]) -> Request:
        """Build a request, registered with the sanitizer when active."""
        if self._san is None:
            return Request(wait_fn)
        return Request(wait_fn, self._san, self._san.track_request(op))

    # -- raw (uncharged) point-to-point -------------------------------------

    def _key(self, src: int, dst: int, tag: Hashable) -> Hashable:
        return (self._comm_id, src, dst, tag)

    def _put_key(self, src: int, dst: int, tag: Hashable, payload: Any) -> None:
        """Deposit for group rank ``dst``, routed by its world rank."""
        self._transport.put(
            self._key(src, dst, tag), payload, dst=self._members[dst]
        )

    def _put_raw(self, dst: int, tag: Hashable, payload: Any) -> None:
        self._put_key(self._rank, dst, tag, payload)

    def _get_raw(self, src: int, tag: Hashable) -> Any:
        return self._transport.get(self._key(src, self._rank, tag))

    # -- charged point-to-point ---------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a Python object or array; charges ``alpha + beta W``."""
        self._check_peer(dest, "dest")
        words = _words_of(obj)
        self._ledger.charge_message(
            self._world_rank, words, cc.send_recv_cost(words, self._ledger.machine)
        )
        self._put_raw(dest, ("p2p", tag), self._tx(obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive an object sent by :meth:`send`; charges ``alpha + beta W``."""
        self._check_peer(source, "source")
        obj = self._transport.get(self._key(source, self._rank, ("p2p", tag)))
        words = _words_of(obj)
        self._ledger.charge_message(
            self._world_rank, words, cc.send_recv_cost(words, self._ledger.machine)
        )
        return obj

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send with deferred completion.

        The payload is staged into the transport immediately (MPI's eager
        protocol — the receiver can match it before this rank waits), but
        the request only completes at ``wait()``, which is where the
        send's ledger charge lands; a pipelined sender therefore charges
        exactly what a blocking :meth:`send` would.  The payload must not
        be mutated between post and ``wait()``.
        """
        self._check_peer(dest, "dest")
        words = _words_of(obj)
        self._put_raw(dest, ("p2p", tag), self._tx(obj))

        def complete() -> None:
            self._ledger.charge_message(
                self._world_rank,
                words,
                cc.send_recv_cost(words, self._ledger.machine),
            )

        return self._make_request("isend", complete)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Nonblocking receive; the message is consumed (and the receive
        charged) at ``wait()``."""
        return self._make_request("irecv", lambda: self.recv(source, tag))

    def isendrecv(
        self, obj: Any, dest: int, source: int, tag: int = 0
    ) -> Request:
        """Nonblocking combined exchange — the ring-shift workhorse.

        The send leg is staged immediately so the peer can match it while
        this rank computes; ``wait()`` blocks for the matching receive and
        returns it.  Both legs' charges land at completion and equal
        :meth:`sendrecv`'s exactly (send leg from the sent words, receive
        leg from the received words), so a pipelined ring ledger-matches
        the blocking one.
        """
        self._check_peer(dest, "dest")
        self._check_peer(source, "source")
        words = _words_of(obj)
        self._put_raw(dest, ("p2p", tag), self._tx(obj))

        def complete() -> Any:
            self._ledger.charge_message(
                self._world_rank,
                words,
                cc.send_recv_cost(words, self._ledger.machine),
            )
            received = self._transport.get(
                self._key(source, self._rank, ("p2p", tag))
            )
            recv_words = _words_of(received)
            self._ledger.charge_message(
                self._world_rank,
                recv_words,
                cc.send_recv_cost(recv_words, self._ledger.machine),
            )
            return received

        return self._make_request("isendrecv", complete)

    def Send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer send (mpi4py-style uppercase): NumPy arrays only."""
        if not isinstance(array, np.ndarray):
            raise TypeError("Send requires a numpy.ndarray; use send() for objects")
        self.send(array, dest, tag)

    def Recv(self, buf: np.ndarray, source: int, tag: int = 0) -> None:
        """Receive into a preallocated buffer; shape/dtype must be compatible."""
        if not isinstance(buf, np.ndarray):
            raise TypeError("Recv requires a preallocated numpy.ndarray buffer")
        data = self.recv(source, tag)
        if not isinstance(data, np.ndarray):
            raise BufferMismatchError(
                f"Recv expected an ndarray message, got {type(data).__name__}"
            )
        if data.dtype != buf.dtype:
            raise BufferMismatchError(
                f"dtype mismatch: message {data.dtype} vs buffer {buf.dtype}"
            )
        if data.size != buf.size:
            raise BufferMismatchError(
                f"size mismatch: message {data.shape} ({data.size} elems) vs "
                f"buffer {buf.shape} ({buf.size} elems)"
            )
        buf.reshape(-1)[:] = data.reshape(-1)

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Simultaneous send+receive (safe against the blocking-order deadlock).

        The send leg is charged from the sent payload, the receive leg
        from the *received* payload — the legs may carry different sizes
        (the receive leg used to be mischarged with the sent size,
        double-charging the send cost when sizes differed).
        """
        self._check_peer(dest, "dest")
        self._check_peer(source, "source")
        words = _words_of(obj)
        self._ledger.charge_message(
            self._world_rank, words, cc.send_recv_cost(words, self._ledger.machine)
        )
        self._put_raw(dest, ("p2p", tag), self._tx(obj))
        received = self._transport.get(self._key(source, self._rank, ("p2p", tag)))
        recv_words = _words_of(received)
        self._ledger.charge_message(
            self._world_rank,
            recv_words,
            cc.send_recv_cost(recv_words, self._ledger.machine),
        )
        return received

    # -- collectives ---------------------------------------------------------

    def _next_coll_tag(self, phase: int = 0) -> Hashable:
        """Reserve a tag for one collective call (same on all ranks by SPMD)."""
        tag = ("coll", self._coll_seq, phase)
        return tag

    def _advance_coll(self) -> int:
        seq = self._coll_seq
        self._coll_seq += 1
        return seq

    def _charge_all(self, seconds: float, words: int = 0, messages: int = 0) -> None:
        """Charge this rank's share of a collective (every member charges once)."""
        if messages:
            self._ledger.charge_message(self._world_rank, words, seconds)
        else:
            self._ledger.charge_time(self._world_rank, seconds)

    def _charge_reduction(self, kind: str, words: int) -> None:
        """The one charge site for the reduction-family collectives.

        Blocking and non-blocking, window and relay, size-1 and grown —
        every path of ``reduce``/``allreduce``/``reduce_scatter_block``
        charges through here, which makes the "non-blocking charges
        exactly what blocking charges" invariant structural instead of
        merely test-enforced.
        """
        machine = self._ledger.machine
        if kind == "reduce":
            cost = cc.reduce_cost(self.size, words, machine)
        elif kind == "allreduce":
            cost = cc.allreduce_cost(self.size, words, machine)
        else:
            cost = cc.reduce_scatter_cost(self.size, words, machine)
        self._charge_all(
            cost, words=words, messages=1 if self.size > 1 else 0
        )

    # -- collective windows --------------------------------------------------
    #
    # On the process transport, the data movement of every collective
    # goes through preallocated per-communicator shared-memory windows
    # (MPI-3 RMA style).  The one-contribution-per-rank collectives
    # (barrier / bcast / gather / allgather / reduce / allreduce /
    # reduce_scatter_block) use a P-slot window: every member writes its
    # contribution into its own slot, a flag fence orders writes before
    # reads, and readers copy directly out of the window.  Scatter rides
    # the same P-slot window with the roles turned around — the root
    # (that round's only writer) fills every member's slot and each
    # member reads its own.  Only alltoall, where every rank writes P-1
    # distinct payloads, needs the P×P pair-slotted window: rank i
    # writes slot (i, j) for destination j and reads column (·, i)
    # after one shared fence.  Either way it is
    # one single-copy exchange instead of relaying O(P) point-to-point
    # messages through rank 0.  Only the *transport* of the bytes
    # changes: the charged ledger costs stay the closed-form tree costs,
    # and results remain bit-identical to the thread backend because
    # contributions are folded in the same group-rank order.

    def _open_window(self, slot_bytes: int, matrix: bool = False):
        """Collectively open a window: group rank 0 creates and publishes
        the segment name and slot size; everyone else attaches.
        Uncharged, like ``split`` — window setup is out of band in the
        paper's model.  The creator's ``slot_bytes`` wins (it is sized
        from rank 0's first payload); a later size fence grows the
        window if another rank's payload does not fit.

        Degrades gracefully under exhaustion: when the creator cannot
        allocate the segment — tmpfs ``ENOSPC``/``ENOMEM``, a
        ``REPRO_SHM_BUDGET`` denial, or an injected ``enospc`` fault at
        the ``window`` site — it publishes a denial sentinel on the same
        name-exchange tag and *every* member returns ``None``, so the
        whole group falls back to the point-to-point relay for that
        collective in lockstep (a later collective simply tries again —
        degradation is per allocation, and the budget may have freed).
        """
        tag = ("win", self._win_gen)
        self._win_gen += 1
        if self._rank == 0:
            try:
                win = self._transport.create_window(
                    self.size, 0, slot_bytes, matrix=matrix
                )
            except OSError as exc:
                if not resources.is_exhaustion(exc):
                    raise
                resources.governor().note_degradation(
                    "window", "p2p", slot_bytes * self.size, str(exc)
                )
                for dst in range(1, self.size):
                    self._put_key(0, dst, tag, ("", 0))
                return None
            for dst in range(1, self.size):
                self._put_key(0, dst, tag, (win.name, win.slot_bytes))
        else:
            name, slot_bytes = self._transport.get(
                self._key(0, self._rank, tag)
            )
            if not name:  # creator's denial sentinel
                return None
            win = self._transport.attach_window(
                name, self.size, self._rank, slot_bytes, matrix=matrix
            )
        return win

    def _grow_window(self, needed: int, matrix: bool = False):
        """Replace a window with one whose slots hold ``needed`` bytes.

        Every member reaches the same growth decision from the shared
        size exchange, so this is collective.  The old window is released
        immediately: all members attached it at creation, so the owner's
        unlink only removes the name.  A denied growth (see
        :meth:`_open_window`) keeps the old window installed and returns
        ``None``; the caller retires the opened round and falls back to
        the point-to-point path.
        """
        slot = self._transport.window_slot(needed)
        new = self._open_window(slot, matrix=matrix)
        if new is None:
            return None
        if matrix:
            old, self._mwin = self._mwin, new
        else:
            old, self._win = self._win, new
        if old is not None:
            self._transport.release_window(old)
        return new

    def _fence_round(self, win, needed: int, words: int, matrix: bool):
        """Open the next exchange on ``win``, growing it until ``needed``
        fits; returns the (possibly replaced) window after the size
        fence, ready to be written, or ``None`` when growth was denied by
        resource exhaustion (the opened round is retired in lockstep —
        nobody wrote a slot yet — and the caller runs point-to-point).
        When the sanitizer is active the current collective's digest
        rides the size fence and is verified before the growth
        decision."""
        sig = self._san_sig if self._san is not None else None
        digest = sig.digest if sig is not None else 0
        while True:
            win.begin()
            largest = win.post_size(needed, words, digest)
            if sig is not None:
                self._san_check_window(win, sig)
            if largest <= win.slot_bytes:
                return win
            grown = self._grow_window(largest, matrix=matrix)
            if grown is None:
                win.commit()
                win.finish()
                return None
            win = grown

    def _window_round(
        self, contribution: Any, contribute: bool = True, words: int = 0
    ):
        """Run the write-and-fence half of one P-slot window exchange.

        Returns the window with this round's data committed (the caller
        reads the slots it needs, then calls ``finish()``), or ``None``
        when the transport has no windows and the point-to-point
        implementation must run instead.  ``words`` rides the size fence
        so every member can charge from sizes it does not hold locally
        (see ``total_words``/``max_words`` on the window).
        """
        if self.size == 1 or not self._transport.windows_enabled:
            return None
        if contribute:
            prefix, payload = pack_collective(contribution)
            needed = packed_nbytes(prefix, payload)
        else:
            prefix, payload, needed = b"", None, 0
        if self._win is None:
            self._win = self._open_window(self._transport.window_slot(needed))
            if self._win is None:
                return None
        win = self._fence_round(self._win, needed, words, matrix=False)
        if win is None:
            return None
        if contribute:
            win.write(prefix, payload)
        win.commit()
        return win

    def _scatter_window_round(self, values, root: int, total_words: int):
        """The root half of a windowed scatter: root writes *every*
        member's slot of the P-slot window (still one writer this round),
        posting its exact total on the size fence; members read their own
        slot in the non-root branch via a contribution-less
        :meth:`_window_round`.  Returns ``None`` when windows are off.
        """
        if not self._transport.windows_enabled:
            return None
        packed = [
            (dst, pack_collective(values[dst]))
            for dst in range(self.size)
            if dst != root
        ]
        needed = max(
            packed_nbytes(prefix, payload) for _, (prefix, payload) in packed
        )
        if self._win is None:
            self._win = self._open_window(self._transport.window_slot(needed))
            if self._win is None:
                return None
        win = self._fence_round(self._win, needed, total_words, matrix=False)
        if win is None:
            return None
        for dst, (prefix, payload) in packed:
            win.write_to(dst, prefix, payload)
        win.commit()
        return win

    def _matrix_round(self, pairs, words: int = 0):
        """Run the write-and-fence half of one P×P pair-window exchange.

        ``pairs`` is this rank's row: ``(dst, obj)`` tuples to deposit.
        The posted size is the largest single pair, so the shared growth
        decision bounds every slot of the matrix.
        """
        if self.size == 1 or not self._transport.windows_enabled:
            return None
        packed = [(dst, pack_collective(obj)) for dst, obj in pairs]
        needed = max(
            (packed_nbytes(prefix, payload) for _, (prefix, payload) in packed),
            default=0,
        )
        if self._mwin is None:
            self._mwin = self._open_window(
                self._transport.window_slot(needed), matrix=True
            )
            if self._mwin is None:
                return None
        win = self._fence_round(self._mwin, needed, words, matrix=True)
        if win is None:
            return None
        for dst, (prefix, payload) in packed:
            win.write_pair(dst, prefix, payload)
        win.commit()
        return win

    def _window_fold(self, win, op: ReduceOp) -> Any:
        """Fold all slots in group-rank order (deterministic, like the
        thread backend's rank-ordered reduction at the root)."""
        acc = win.read(0)
        for src in range(1, self.size):
            acc = op(acc, win.read(src))
        return acc

    def barrier(self) -> None:
        """Synchronize all members; charged as one zero-byte all-reduce."""
        seq = self._advance_coll()
        self._san_enter("barrier", seq)
        if self.size > 1:
            fenced = False
            if self._transport.windows_enabled:
                if self._san is not None:
                    # The plain fence publishes its done flag before
                    # waiting on peers, so a peer may already be posting
                    # the *next* round's digest while we read this one's;
                    # the sanitized barrier therefore runs a full
                    # (contribution-less) window round, whose size fence
                    # orders the digest check correctly.
                    win = self._window_round(None, contribute=False)
                    if win is not None:
                        win.finish()
                        fenced = True
                else:
                    # Zero-byte window fence: one shared rendezvous — no
                    # slot is written, read, or committed (and barriers
                    # never grow the window, so the growth loop is
                    # skipped too).
                    if self._win is None:
                        self._win = self._open_window(
                            self._transport.window_slot(0)
                        )
                    if self._win is not None:
                        self._win.fence()
                        fenced = True
            if not fenced:
                # Point-to-point fallback: fan a token into group rank 0
                # and fan one back out.
                tag_in = ("coll", seq, 0)
                tag_out = ("coll", seq, 1)
                if self._rank == 0:
                    for src in range(1, self.size):
                        self._transport.get(self._key(src, 0, tag_in))
                    for dst in range(1, self.size):
                        self._put_key(0, dst, tag_out, None)
                else:
                    self._put_raw(0, tag_in, None)
                    self._transport.get(self._key(0, self._rank, tag_out))
        self._charge_all(cc.allreduce_cost(self.size, 1, self._ledger.machine))

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to all members."""
        self._check_peer(root, "root")
        seq = self._advance_coll()
        self._san_enter("bcast", seq, root=root, value=obj)
        tag = ("coll", seq, 0)
        if self.size > 1:
            win = self._window_round(obj, contribute=self._rank == root)
            if win is not None:
                result = obj if self._rank == root else win.read(root)
                win.finish()
            elif self._rank == root:
                payload = self._tx(obj)
                for dst in range(self.size):
                    if dst != root:
                        self._put_key(root, dst, tag, payload)
                result = obj
            else:
                result = _copy_payload(
                    self._transport.get(self._key(root, self._rank, tag))
                )
        else:
            result = obj
        words = _words_of(result)
        self._charge_all(
            cc.bcast_cost(self.size, words, self._ledger.machine),
            words=words,
            messages=1 if self.size > 1 else 0,
        )
        return result

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to ``root`` (returns None elsewhere).

        Every member charges the tree cost of the *exact* total gathered
        words — sizes may differ per rank, so the total is shared through
        the window's size fence (or, on the point-to-point path, fanned
        back out by the root uncharged, like ``split``'s setup exchange).
        """
        self._check_peer(root, "root")
        seq = self._advance_coll()
        self._san_enter("gather", seq, root=root, value=value)
        tag_in = ("coll", seq, 0)
        tag_out = ("coll", seq, 1)
        my_words = _words_of(value)
        out: list[Any] | None = None
        if self.size == 1:
            total_words = my_words
            out = [_copy_payload(value)]
        else:
            win = self._window_round(value, words=my_words)
            if win is not None:
                total_words = win.total_words()
                if self._rank == root:
                    out = [win.read(src) for src in range(self.size)]
                win.finish()
            elif self._rank == root:
                out = [None] * self.size
                out[root] = _copy_payload(value)
                for src in range(self.size):
                    if src != root:
                        out[src] = self._transport.get(
                            self._key(src, root, tag_in)
                        )
                total_words = sum(_words_of(v) for v in out)
                for dst in range(self.size):
                    if dst != root:
                        self._put_key(root, dst, tag_out, total_words)
            else:
                self._put_raw(root, tag_in, self._tx(value))
                total_words = self._transport.get(
                    self._key(root, self._rank, tag_out)
                )
        self._charge_all(
            cc.allgather_cost(self.size, total_words, self._ledger.machine),
            words=total_words,
            messages=1 if self.size > 1 else 0,
        )
        return out

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank onto every rank.

        Charged from the *exact* total gathered words (every rank holds
        the full result, so the total needs no extra exchange), keeping
        the cost identical on all members even when sizes are uneven.
        """
        seq = self._advance_coll()
        self._san_enter("allgather", seq, value=value)
        tag_in = ("coll", seq, 0)
        tag_out = ("coll", seq, 1)
        if self.size == 1:
            out = [_copy_payload(value)]
        else:
            win = self._window_round(value)
            if win is not None:
                out = [win.read(src) for src in range(self.size)]
                win.finish()
            elif self._rank == 0:
                out = [None] * self.size
                out[0] = _copy_payload(value)
                for src in range(1, self.size):
                    out[src] = self._transport.get(self._key(src, 0, tag_in))
                for dst in range(1, self.size):
                    # Fresh copies per destination: the root may mutate its
                    # own result list before receivers drain their mailboxes.
                    relay = [self._tx(v) for v in out]
                    self._put_key(0, dst, tag_out, relay)
                out = list(out)
            else:
                self._put_raw(0, tag_in, self._tx(value))
                out = self._transport.get(self._key(0, self._rank, tag_out))
        total_words = sum(_words_of(v) for v in out)
        self._charge_all(
            cc.allgather_cost(self.size, total_words, self._ledger.machine),
            words=total_words,
            messages=1 if self.size > 1 else 0,
        )
        return out

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one value per rank from ``root``.

        Every member charges the cost of the root's *exact* total — the
        true ``sum(words)`` rides the window's size fence (or piggybacks
        on each scattered message on the point-to-point path), so uneven
        payloads no longer make non-roots charge a different cost than
        the root.
        """
        self._check_peer(root, "root")
        seq = self._advance_coll()
        self._san_enter("scatter", seq, root=root)
        tag = ("coll", seq, 0)
        if self._rank == root:
            if values is None or len(values) != self.size:
                raise CommunicatorError(
                    f"scatter root needs exactly {self.size} values, got "
                    f"{None if values is None else len(values)}"
                )
            my_value = _copy_payload(values[root])
            total_words = sum(_words_of(v) for v in values)
            if self.size > 1:
                win = self._scatter_window_round(values, root, total_words)
                if win is not None:
                    win.finish()
                else:
                    for dst in range(self.size):
                        if dst != root:
                            self._put_key(
                                root,
                                dst,
                                tag,
                                (self._tx(values[dst]), total_words),
                            )
        else:
            win = self._window_round(None, contribute=False)
            if win is not None:
                # Only the root posted a word count; the fence-shared sum
                # is therefore exactly the root's total.
                total_words = win.total_words()
                my_value = win.read(self._rank)
                win.finish()
            else:
                my_value, total_words = self._transport.get(
                    self._key(root, self._rank, tag)
                )
        self._charge_all(
            cc.bcast_cost(self.size, total_words, self._ledger.machine),
            words=total_words,
            messages=1 if self.size > 1 else 0,
        )
        return my_value

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any | None:
        """Reduce values to ``root`` with ``op`` (rank-ordered, deterministic).

        Contributions normally share one shape, but ops that broadcast
        (NumPy ufuncs) tolerate uneven ones, so every member charges from
        the *largest* contribution — shared on the window's size fence,
        or fanned out by the root uncharged on the point-to-point path —
        keeping the charge rank-independent either way.
        """
        self._check_peer(root, "root")
        seq = self._advance_coll()
        self._san_enter("reduce", seq, root=root, reduce_op=op, value=value)
        my_words = _words_of(value)
        acc: Any = None
        if self.size == 1:
            peak_words = my_words
            acc = _copy_payload(value)
        else:
            win = self._window_round(value, words=my_words)
            if win is not None:
                peak_words = win.max_words()
                if self._rank == root:
                    # Only the root folds (in group-rank order, matching
                    # the thread backend); the rest just fence through.
                    acc = self._window_fold(win, op)
                win.finish()
            else:
                # The root never puts its own contribution, so only the
                # senders need the transport-safe copy.
                acc, peak_words = self._reduce_p2p(
                    value if self._rank == root else self._tx(value),
                    op,
                    root,
                    seq,
                )
        self._charge_reduction("reduce", peak_words)
        return acc

    def _reduce_p2p(
        self, value_tx: Any, op: ReduceOp, root: int, seq: int
    ) -> tuple[Any, int]:
        """Point-to-point relay body of :meth:`reduce`: move the bytes,
        fold at the root (group-rank order), fan the peak contribution
        size back out.  Uncharged — callers charge from the returned
        ``(acc_or_None, peak_words)``.  Non-root callers must pass a
        transport-safe ``value_tx`` (pre-copied on by-reference
        transports); the root's contribution is never put, and the fold
        copies before accumulating."""
        tag_in = ("coll", seq, 0)
        tag_out = ("coll", seq, 1)
        if self._rank == root:
            contributions: list[Any] = [None] * self.size
            contributions[root] = value_tx
            for src in range(self.size):
                if src != root:
                    contributions[src] = self._transport.get(
                        self._key(src, root, tag_in)
                    )
            peak_words = max(_words_of(c) for c in contributions)
            acc = _copy_payload(contributions[0])
            for src in range(1, self.size):
                acc = op(acc, contributions[src])
            for dst in range(self.size):
                if dst != root:
                    self._put_key(root, dst, tag_out, peak_words)
            return acc, peak_words
        self._put_raw(root, tag_in, value_tx)
        return None, self._transport.get(self._key(root, self._rank, tag_out))

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce-then-broadcast; every rank gets the reduction.

        Charged from the *result's* words (identical on every member by
        construction), so even broadcasting ops with uneven contributions
        charge rank-independent costs.
        """
        seq = self._advance_coll()
        self._san_enter("allreduce", seq, reduce_op=op, value=value)
        if self.size == 1:
            acc = _copy_payload(value)
        else:
            win = self._window_round(value)
            if win is not None:
                # Every rank folds the slots in the same group-rank order
                # the thread backend's root uses, so results stay
                # bit-identical.
                acc = self._window_fold(win, op)
                win.finish()
            else:
                acc = self._allreduce_p2p(
                    value if self._rank == 0 else self._tx(value), op, seq
                )
        words = _words_of(acc)
        self._charge_reduction("allreduce", words)
        return acc

    def _allreduce_p2p(self, value_tx: Any, op: ReduceOp, seq: int) -> Any:
        """Point-to-point relay body of :meth:`allreduce` (fold at group
        rank 0 in rank order, broadcast the result); uncharged."""
        tag_in = ("coll", seq, 0)
        tag_out = ("coll", seq, 1)
        if self._rank == 0:
            acc = _copy_payload(value_tx)
            received = []
            for src in range(1, self.size):
                received.append(
                    self._transport.get(self._key(src, 0, tag_in))
                )
            for contribution in received:
                acc = op(acc, contribution)
            for dst in range(1, self.size):
                self._put_key(0, dst, tag_out, self._tx(acc))
            return acc
        self._put_raw(0, tag_in, value_tx)
        return self._transport.get(self._key(0, self._rank, tag_out))

    def reduce_scatter_block(
        self, array: np.ndarray, op: ReduceOp = SUM
    ) -> np.ndarray:
        """Reduce an array then scatter equal blocks along axis 0.

        ``array.shape[0]`` must be divisible by the communicator size, and
        every member must pass the *same shape* (the root slices blocks
        by its own shape, so mismatched shapes would mis-scatter — unlike
        ``reduce``, broadcasting contributions are not meaningful here).
        Used by the non-blocked TTM fast path (paper Sec. V-B).
        """
        if not isinstance(array, np.ndarray):
            raise TypeError("reduce_scatter_block requires a numpy.ndarray")
        if array.shape[0] % self.size != 0:
            raise CommunicatorError(
                f"axis 0 of shape {array.shape} not divisible by size {self.size}"
            )
        seq = self._advance_coll()
        self._san_enter(
            "reduce_scatter_block", seq, reduce_op=op, value=array
        )
        block = array.shape[0] // self.size
        # Charge after the exchange, like the other reduction-family
        # collectives: a failed exchange must not leave this rank's
        # ledger ahead of its peers'.
        if self.size == 1:
            out = np.array(array, copy=True)
        else:
            win = self._window_round(array)
            if win is not None:
                acc = self._window_fold(win, op)
                win.finish()
                lo = self._rank * block
                out = np.array(acc[lo : lo + block], copy=True)
            else:
                out = self._reduce_scatter_p2p(
                    array if self._rank == 0 else self._tx(array), op, seq
                )
        self._charge_reduction("reduce_scatter", _words_of(array))
        return out

    def _reduce_scatter_p2p(
        self, array_tx: np.ndarray, op: ReduceOp, seq: int
    ) -> np.ndarray:
        """Point-to-point relay body of :meth:`reduce_scatter_block`
        (fold at group rank 0, scatter equal axis-0 blocks); uncharged."""
        tag_in = ("coll", seq, 0)
        tag_out = ("coll", seq, 1)
        block = array_tx.shape[0] // self.size
        if self._rank == 0:
            acc = np.array(array_tx, copy=True)
            for src in range(1, self.size):
                acc = op(acc, self._transport.get(self._key(src, 0, tag_in)))
            for dst in range(1, self.size):
                self._put_key(
                    0,
                    dst,
                    tag_out,
                    np.array(acc[dst * block : (dst + 1) * block], copy=True),
                )
            return np.array(acc[:block], copy=True)
        self._put_raw(0, tag_in, array_tx)
        return _copy_payload(
            self._transport.get(self._key(0, self._rank, tag_out))
        )

    # -- non-blocking collectives --------------------------------------------
    #
    # ireduce / iallreduce / ireduce_scatter_block return a Request whose
    # wait() yields exactly what the blocking op returns and charges
    # exactly what the blocking op charges — completion-time charging, so
    # the ledger-symmetry invariants hold however far compute is pipelined
    # between post and wait.
    #
    # On the window transport a post deposits this rank's contribution
    # immediately: it opens the round, publishes the packed size and
    # modeled words, and — when the payload fits the current slot — writes
    # its slot and commit-flags it, all without waiting on any peer.  The
    # fence *waits* (size exchange, write fence) are deferred to the
    # request's wait(): by the time a rank stops computing and waits, the
    # stragglers have usually posted too, so the spins resolve
    # immediately — that deferral is what lets compute overlap the fences.
    # Rounds alternate between two dedicated windows (double buffering,
    # see ``_nb_wins`` in ``__init__``); posting to a buffer whose
    # previous round this rank has not waited force-completes it first.
    # Only the transport of the bytes differs from the blocking path: the
    # fold order (group-rank), the results, and the charges are identical.

    def ireduce(
        self, value: Any, op: ReduceOp = SUM, root: int = 0
    ) -> Request:
        """Nonblocking :meth:`reduce`: ``wait()`` returns the root's
        folded result (``None`` elsewhere) and lands the blocking op's
        exact charge.  A non-root completes as soon as the size fence
        resolves — it never waits on the write fence."""
        self._check_peer(root, "root")
        return self._nb_post(value, op, "reduce", root)

    def iallreduce(self, value: Any, op: ReduceOp = SUM) -> Request:
        """Nonblocking :meth:`allreduce` (deferred fences, charge and
        rank-ordered fold at ``wait()``)."""
        return self._nb_post(value, op, "allreduce", 0)

    def ireduce_scatter_block(
        self, array: np.ndarray, op: ReduceOp = SUM
    ) -> Request:
        """Nonblocking :meth:`reduce_scatter_block` (same validation; this
        rank's block arrives at ``wait()``)."""
        if not isinstance(array, np.ndarray):
            raise TypeError("reduce_scatter_block requires a numpy.ndarray")
        if array.shape[0] % self.size != 0:
            raise CommunicatorError(
                f"axis 0 of shape {array.shape} not divisible by size {self.size}"
            )
        return self._nb_post(array, op, "reduce_scatter", 0)

    def _complete_pending(self, buf: int) -> None:
        """Force-complete this rank's outstanding request on ``buf``.

        Reusing a buffer whose round this rank never waited would spin on
        its own unpublished ``done`` flag; completing the old request
        first (idempotent — a later user ``wait()`` returns the cached
        value) keeps any depth of posted requests deadlock-free."""
        req = self._nb_pending[buf]
        if req is not None:
            req._force()

    def _nb_window(self, buf: int, needed: int):
        win = self._nb_wins[buf]
        if win is None:
            win = self._open_window(self._transport.window_slot(needed))
            self._nb_wins[buf] = win
        return win

    def _grow_nb_window(self, buf: int, needed: int):
        """Non-blocking-round variant of :meth:`_grow_window`."""
        new = self._open_window(self._transport.window_slot(needed))
        old, self._nb_wins[buf] = self._nb_wins[buf], new
        if old is not None:
            self._transport.release_window(old)
        return new

    _NB_OP_NAMES = {
        "reduce": "ireduce",
        "allreduce": "iallreduce",
        "reduce_scatter": "ireduce_scatter_block",
    }

    def _nb_post(self, value: Any, op: ReduceOp, kind: str, root: int) -> Request:
        """Post one non-blocking reduction collective; see the section
        comment for the overlap protocol.  The contribution must not be
        mutated between post and ``wait()`` (MPI's usual rule)."""
        seq = self._advance_coll()
        op_name = self._NB_OP_NAMES[kind]
        self._transport.note_collective(op_name, seq)
        if self._faults is not None:
            self._faults.fire(op_name)
        # Record the signature without exchanging: the post must not
        # block, so verification is deferred — the digest rides this
        # round's size fence (window path) or the full signature is
        # deposited now and peers' signatures are collected at wait()
        # (point-to-point path).
        sig = None
        if self._san is not None:
            sig = self._san.collective(
                op_name,
                seq,
                self._rank,
                root=root if kind == "reduce" else None,
                reduce_op=op,
                value=value,
            )
            self._san_sig = sig
        my_words = _words_of(value)
        if self.size == 1:
            return self._make_request(
                op_name,
                lambda: self._nb_complete_single(kind, value, op, my_words),
            )
        if not self._transport.windows_enabled:
            if sig is not None:
                self._san_put_sigs(sig)
            value_tx = self._tx(value)

            def complete_p2p() -> Any:
                if sig is not None:
                    self._san_collect_sigs(sig)
                return self._nb_complete_p2p(
                    kind, value_tx, op, root, seq, my_words
                )

            return self._make_request(op_name, complete_p2p)
        buf = self._nb_toggle
        self._nb_toggle = 1 - self._nb_toggle
        self._complete_pending(buf)
        prefix, payload = pack_collective(value)
        needed = packed_nbytes(prefix, payload)
        win = self._nb_window(buf, needed)
        if win is None:
            # Window denied by resource exhaustion (collectively — every
            # member saw the sentinel): run this round exactly like a
            # windows-off transport.  The toggle already advanced on all
            # members, so double buffering stays in step.
            if sig is not None:
                self._san_put_sigs(sig)
            value_tx = self._tx(value)
            nb_sig = sig

            def complete_degraded() -> Any:
                if nb_sig is not None:
                    self._san_collect_sigs(nb_sig)
                return self._nb_complete_p2p(
                    kind, value_tx, op, root, seq, my_words
                )

            return self._make_request(op_name, complete_degraded)
        win.begin()
        win.post_size_nowait(
            needed, my_words, sig.digest if sig is not None else 0
        )
        written = needed <= win.slot_bytes
        if written:
            # Optimistic deposit: our slot has no other writer this
            # round, and readers only look after the (deferred) write
            # fence, so writing before the size fence is safe.  If some
            # other rank's payload forces growth the round is replayed
            # on a grown window and these bytes are simply abandoned.
            win.write(prefix, payload)
            win.commit_nowait()
        value_tx = self._tx(value)
        req = self._make_request(
            op_name,
            lambda: self._nb_complete_window(
                buf,
                kind,
                op,
                root,
                my_words,
                prefix,
                payload,
                written,
                sig,
                seq=seq,
                value_tx=value_tx,
            ),
        )
        self._nb_pending[buf] = req
        return req

    def _nb_complete_single(
        self, kind: str, value: Any, op: ReduceOp, my_words: int
    ) -> Any:
        """Size-1 completion: mirror the blocking ops' shortcut charges."""
        if kind == "reduce_scatter":
            self._charge_reduction(kind, my_words)
            return np.array(value, copy=True)
        acc = _copy_payload(value)
        self._charge_reduction(
            kind, my_words if kind == "reduce" else _words_of(acc)
        )
        return acc

    def _nb_complete_p2p(
        self,
        kind: str,
        value_tx: Any,
        op: ReduceOp,
        root: int,
        seq: int,
        my_words: int,
    ) -> Any:
        """Windows-off completion: run the blocking relay body (tags were
        reserved at post time, so interleaved posts stay matched)."""
        if kind == "reduce":
            acc, peak_words = self._reduce_p2p(value_tx, op, root, seq)
            self._charge_reduction(kind, peak_words)
            return acc
        if kind == "allreduce":
            acc = self._allreduce_p2p(value_tx, op, seq)
            self._charge_reduction(kind, _words_of(acc))
            return acc
        out = self._reduce_scatter_p2p(value_tx, op, seq)
        self._charge_reduction(kind, my_words)
        return out

    def _nb_complete_window(
        self,
        buf: int,
        kind: str,
        op: ReduceOp,
        root: int,
        my_words: int,
        prefix: bytes,
        payload: np.ndarray | None,
        written: bool,
        sig: CollectiveCall | None = None,
        seq: int = 0,
        value_tx: Any = None,
    ) -> Any:
        """Window completion: finish the deferred fences, read, charge."""
        self._nb_pending[buf] = None
        win = self._nb_wins[buf]
        largest = win.wait_posted()
        if sig is not None:
            # The deferred size fence has resolved, so every member's
            # digest for this round is visible: verify before reading.
            self._san_check_window(win, sig)
        if largest > win.slot_bytes:
            # Rare growth replay: some rank's payload outgrew the slots.
            # Retire the optimistic round (flags only — nobody reads it)
            # and replay it as one blocking round on a grown window; every
            # member reaches the identical decision from the shared max,
            # so the replacement stays collective.
            if not written:
                win.commit_nowait()
            win.finish()
            win = self._grow_nb_window(buf, largest)
            if win is None:
                # Growth denied by resource exhaustion — collectively, so
                # every member replays the round point-to-point on the
                # tags reserved at post time.  The sanitizer already
                # verified this round's digests on the size fence above.
                return self._nb_complete_p2p(
                    kind, value_tx, op, root, seq, my_words
                )
            win.begin()
            win.post_size(
                packed_nbytes(prefix, payload),
                my_words,
                sig.digest if sig is not None else 0,
            )
            win.write(prefix, payload)
            win.commit()
        acc: Any = None
        if kind != "reduce" or self._rank == root:
            # Only readers pay the write fence; a non-root ireduce
            # completes off the size fence alone (its charge needs the
            # shared peak, nothing else, and window reuse is still gated
            # by the root's own done flag).
            win.wait_written()
            acc = self._window_fold(win, op)
        peak_words = win.max_words()
        win.finish()
        if kind == "reduce":
            self._charge_reduction(kind, peak_words)
            return acc
        if kind == "allreduce":
            self._charge_reduction(kind, _words_of(acc))
            return acc
        self._charge_reduction(kind, my_words)
        block = acc.shape[0] // self.size
        lo = self._rank * block
        return np.array(acc[lo : lo + block], copy=True)

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """Exchange ``values[j]`` with rank ``j`` for all j simultaneously.

        Charged from the *heaviest* rank's row total (the bulk-synchronous
        exchange finishes when the busiest rank does), shared through the
        window's size fence or piggybacked on each pairwise message, so
        every member charges the identical cost under uneven rows.
        """
        if len(values) != self.size:
            raise CommunicatorError(
                f"alltoall needs exactly {self.size} values, got {len(values)}"
            )
        seq = self._advance_coll()
        self._san_enter("alltoall", seq)
        tag = ("coll", seq, 0)
        p = self.size
        row_words = sum(_words_of(v) for v in values)
        out: list[Any] = [None] * p
        out[self._rank] = _copy_payload(values[self._rank])
        peak_words = row_words
        if p > 1:
            win = self._matrix_round(
                [(dst, values[dst]) for dst in range(p) if dst != self._rank],
                words=row_words,
            )
            if win is not None:
                peak_words = win.max_words()
                for src in range(p):
                    if src != self._rank:
                        out[src] = win.read_pair(src)
                win.finish()
            else:
                for dst in range(p):
                    if dst != self._rank:
                        self._put_key(
                            self._rank,
                            dst,
                            tag,
                            (self._tx(values[dst]), row_words),
                        )
                for src in range(p):
                    if src != self._rank:
                        out[src], src_words = self._transport.get(
                            self._key(src, self._rank, tag)
                        )
                        peak_words = max(peak_words, src_words)
        # Pairwise-exchange cost: (P-1) messages of ceil(W/P) words each.
        cost = (p - 1) * cc.send_recv_cost(
            -(-peak_words // p) if p > 1 else 0, self._ledger.machine
        )
        self._charge_all(cost, words=peak_words, messages=1 if p > 1 else 0)
        return out

    # -- communicator construction -------------------------------------------

    def split(self, color: int | None, key: int | None = None) -> "Communicator | None":
        """Partition the communicator by ``color``; order new ranks by ``key``.

        Ranks passing ``color=None`` (MPI's ``MPI_UNDEFINED``) receive ``None``.
        """
        seq = self._advance_coll()
        # Split always relays point-to-point (never through windows), so
        # its signature exchange is forced onto the point-to-point path.
        self._san_enter("split", seq, windowed=False)
        # Exchange (color, key, rank) without charging: communicator setup is
        # out of band in the paper's model.
        tag_in = ("coll", seq, 0)
        tag_out = ("coll", seq, 1)
        triple = (color, self._rank if key is None else key, self._rank)
        if self.size == 1:
            triples = [triple]
        elif self._rank == 0:
            triples = [triple] + [
                self._transport.get(self._key(src, 0, tag_in))
                for src in range(1, self.size)
            ]
            triples.sort(key=lambda t: t[2])
            for dst in range(1, self.size):
                self._put_key(0, dst, tag_out, triples)
        else:
            self._put_raw(0, tag_in, triple)
            triples = self._transport.get(self._key(0, self._rank, tag_out))
        if color is None:
            return None
        group = sorted(
            (t for t in triples if t[0] == color),
            key=lambda t: (t[1], t[2]),
        )
        members = tuple(self._members[t[2]] for t in group)
        child_id = (self._comm_id, seq, color)
        return Communicator(
            self._transport,
            self._ledger,
            child_id,
            members,
            self._world_rank,
            sanitizer=self._san,
            faults=self._faults,
        )

    def group(self, ranks: Sequence[int]) -> "Communicator":
        """The communicator over this one's ranks ``ranks``, in that order,
        built without a message (cf. ``MPI_Cart_sub``).

        Every member must pass the same ``ranks``.  Its id is derived from
        them, so the same group is one communicator however often it is
        asked for; the whole group in order is this communicator itself,
        with its windows and sequence numbers.  Uncharged, like ``split``.
        """
        key = tuple(ranks)
        if key == tuple(range(self.size)):
            return self
        if key not in self._groups:
            self._groups[key] = Communicator(
                self._transport,
                self._ledger,
                (self._comm_id, key),
                tuple(self._members[r] for r in key),
                self._world_rank,
                sanitizer=self._san,
                faults=self._faults,
            )
        return self._groups[key]

    def dup(self) -> "Communicator":
        """Duplicate the communicator with a fresh tag space."""
        child = self.split(color=0, key=self._rank)
        assert child is not None
        return child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Communicator(id={self._comm_id!r}, rank={self._rank}/{self.size})"
        )
