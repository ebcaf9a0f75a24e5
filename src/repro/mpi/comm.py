"""Simulated MPI communicator.

The API is the subset of mpi4py's lowercase object interface the
distributed drivers call — ``rank``/``size``, ``send``/``recv``/
``sendrecv``, the paper's Table I collectives (``bcast``, ``reduce``,
``allreduce``, ``reduce_scatter_block``, ``allgather``) plus ``gather``,
``scatter`` and ``barrier``, and ``group`` for the processor grid's
sub-communicators — so the algorithms read like ordinary MPI code.
Differences:

* Ranks are threads or forked processes (an executor-backend choice, see
  :mod:`repro.mpi.backends`); messages move by copy through a
  :class:`~repro.mpi.transport.TransportBase` implementation.
* Every operation *charges* a :class:`~repro.mpi.ledger.CostLedger` with the
  alpha-beta-gamma cost from the paper's Table I, enabling modeled-time
  measurements of the very runs the tests execute.
* Each collective is one description (who writes, who reads, the fold or
  assembly, its Table I cost) run by one entry point over one exchange
  round on the transport's mailboxes (:class:`_MailboxRound`): every
  member sends each peer one message carrying its modeled words, its
  sanitizer digest and, for the peers that read it, its contribution;
  receiving one message from each peer is the fence.  The *charged* cost
  is the closed-form tree cost, identical on every member, not the cost
  of the messages that moved the bytes.
* The non-blocking operations (``isendrecv`` for the ring pipeline,
  ``ireduce`` for the blocked TTM) defer completion to ``Request.wait()``:
  sends and round deposits are staged at post time, the blocking
  receives — and every ledger charge — land at completion, so pipelined
  kernels overlap communication with compute while charging exactly what
  the blocking ops would.

Determinism: reductions fold contributions in group-rank order, so repeated
runs give bitwise-identical floating-point results.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable, NamedTuple, Sequence

import numpy as np

from repro import resources
from repro.analysis.sanitizer import CollectiveCall, Sanitizer
from repro.mpi.errors import CommunicatorError
from repro.mpi.ledger import CostLedger
from repro.mpi.reduce_ops import SUM, ReduceOp
from repro.mpi.transport import TransportBase
from repro.perfmodel import collectives as cc
from repro.perfmodel.machine import MachineSpec


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
    receive happens there, and that is also where the operation's
    ledger charge lands, so pipelined code charges exactly what the
    blocking ops would — and caches the result for repeated waits.
    There is no background progress thread, so a request only completes
    inside ``wait()``.

    SPMD discipline: like the blocking collectives, the posts *and* the
    waits of non-blocking collectives must occur in the same order on
    every member relative to the communicator's other collectives.
    Under ``REPRO_SANITIZE=1`` the handle is strict MPI: a request
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
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value


# -- the exchange round ------------------------------------------------------
#
# A collective is one exchange round.  Each member posts its modeled words
# (so every member can charge from sizes only some of them hold), its
# sanitizer digest (0 when the sanitizer is off) and its contribution for
# the members that read it; then it fences (``wait_posted``) and reads.

#: "This member deposits nothing this round" (``None`` is a payload).
_NO_DATA: Any = object()


class _Deposit(NamedTuple):
    """What one member posts to one round."""

    #: One contribution for every member that reads it.
    send: Any = _NO_DATA
    #: The one member that reads ``send`` (``None``: every member).
    reader: int | None = None
    #: ``(dst, payload)`` pairs, each read by ``dst`` alone.
    sends: tuple = ()
    #: Modeled words shared at the fence.
    words: int = 0
    #: Sanitizer signature digest shared at the fence.
    digest: int = 0


class _MailboxRound:
    """One exchange round over the transport's ``put``/``get`` mailboxes.

    Each member deposits exactly one message for each peer,
    ``(words, digest, payload)``, with the payload (``None`` otherwise)
    only for the peers that read it; receiving one message from each peer
    is the fence.  Every reader gets a private copy: a by-reference
    transport ships one snapshot per writer, which each reader copies
    again at read.  On a one-member communicator the round moves nothing,
    which makes it the one-rank shortcut too.
    """

    def __init__(self, comm: "Communicator", tag: Hashable, deposit: _Deposit):
        self._comm = comm
        self._tag = tag
        self._deposit = deposit
        self._got: dict[int, tuple] = {}
        self._peers = [src for src in range(comm.size) if src != comm.rank]
        shared = deposit.send
        if shared is not _NO_DATA and self._peers:
            shared = comm._tx(shared)
        addressed = {dst: comm._tx(obj) for dst, obj in deposit.sends}
        for dst in self._peers:
            payload = addressed.get(dst)
            if shared is not _NO_DATA and deposit.reader in (None, dst):
                payload = shared
            comm._put_raw(dst, tag, (deposit.words, deposit.digest, payload))

    def wait_posted(self) -> None:
        for src in self._peers:
            self._got[src] = self._comm._get_raw(src, self._tag)

    def mismatched(self, digest: int) -> list[int]:
        return [src for src, msg in self._got.items() if msg[1] != digest]

    def read(self, src: int) -> Any:
        """What ``src`` posted for this member (its own ``send`` when
        ``src`` is this member)."""
        if src == self._comm.rank:
            return _copy_payload(self._deposit.send)
        return _copy_payload(self._got[src][2])

    def total_words(self) -> int:
        return self._deposit.words + sum(msg[0] for msg in self._got.values())

    def max_words(self) -> int:
        return max([self._deposit.words, *(msg[0] for msg in self._got.values())])


def _barrier_cost(p: int, w: float, machine: MachineSpec) -> float:
    """A barrier is charged as a one-word all-reduce."""
    return cc.allreduce_cost(p, 1, machine)


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
        # SPMD sanitizer (None when REPRO_SANITIZE=0): one per-rank
        # instance shared by every communicator of the rank, so request
        # bookkeeping and the last-collective deadlock context span
        # `group` children too.
        self._san = sanitizer
        # Sub-communicators built by `group`, by their ranks here.
        self._groups: dict[tuple[int, ...], Communicator] = {}

    # -- identity ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._members)

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
    # At REPRO_SANITIZE=1 every collective entry records a signature
    # (op, sequence number, root, reduction op, call site) and its digest
    # travels in every round message like the modeled words.  After the
    # fence each member compares every digest against its own; on a
    # mismatch every member sees the divergence, so the group runs one
    # more (uncharged) round that exchanges the full signatures purely to
    # build the diagnostic.  Verification is symmetric — no rank plays
    # collector — so it can never introduce a new deadlock among ranks
    # that agree.  Limitation: calls under diverging sequence numbers
    # never meet — those still deadlock, but the timeout arrives annotated
    # with this rank's last collective and call site.

    @property
    def sanitizer(self) -> Sanitizer | None:
        """The rank's sanitizer instance, or ``None`` at REPRO_SANITIZE=0."""
        return self._san

    def _raise_mismatch(self, tag: Hashable, sig: CollectiveCall) -> None:
        exchange = _MailboxRound(self, ("sanx", tag), _Deposit(send=sig.wire()))
        exchange.wait_posted()
        peers = [
            CollectiveCall.from_wire(exchange.read(src))
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

    def _put_raw(self, dst: int, tag: Hashable, payload: Any) -> None:
        """Deposit for group rank ``dst``, routed by its world rank."""
        self._transport.put(
            self._key(self._rank, dst, tag), payload, dst=self._members[dst]
        )

    def _get_raw(self, src: int, tag: Hashable) -> Any:
        return self._transport.get(self._key(src, self._rank, tag))

    # -- charged point-to-point ---------------------------------------------

    def _charge_p2p(self, words: int) -> None:
        """Charge one message leg of ``words`` words: ``alpha + beta W``."""
        self._ledger.charge_message(
            self._world_rank, words, cc.send_recv_cost(words, self._ledger.machine)
        )

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a Python object or array; charges ``alpha + beta W``."""
        self._check_peer(dest, "dest")
        self._charge_p2p(_words_of(obj))
        self._put_raw(dest, ("p2p", tag), self._tx(obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive an object sent by :meth:`send`; charges ``alpha + beta W``."""
        self._check_peer(source, "source")
        obj = self._get_raw(source, ("p2p", tag))
        self._charge_p2p(_words_of(obj))
        return obj

    def _post_exchange(
        self, obj: Any, dest: int, source: int, tag: int
    ) -> Callable[[], Any]:
        """Stage the send leg now; the returned completion receives.

        The send leg is charged from the sent payload, the receive leg
        from the *received* payload — the legs may carry different sizes.
        """
        self._check_peer(dest, "dest")
        self._check_peer(source, "source")
        words = _words_of(obj)
        self._put_raw(dest, ("p2p", tag), self._tx(obj))

        def complete() -> Any:
            self._charge_p2p(words)
            received = self._get_raw(source, ("p2p", tag))
            self._charge_p2p(_words_of(received))
            return received

        return complete

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Simultaneous send+receive (safe against the blocking-order deadlock)."""
        return self._post_exchange(obj, dest, source, tag)()

    def isendrecv(
        self, obj: Any, dest: int, source: int, tag: int = 0
    ) -> Request:
        """Nonblocking combined exchange — the ring-shift workhorse.

        The send leg is staged immediately so the peer can match it while
        this rank computes; ``wait()`` blocks for the matching receive and
        returns it, and lands exactly :meth:`sendrecv`'s two charges, so a
        pipelined ring ledger-matches the blocking one.
        """
        return self._make_request(
            "isendrecv", self._post_exchange(obj, dest, source, tag)
        )

    # -- collectives: the one entry point ------------------------------------

    def _collective(
        self,
        op: str,
        finish: Callable[[Any], tuple[Any, int]],
        cost: Callable[[int, float, MachineSpec], float],
        deposit: _Deposit = _Deposit(),
        *,
        root: int | None = None,
        reduce_op: ReduceOp | None = None,
        value: Any = None,
        nonblocking: bool = False,
    ) -> Any:
        """Run one collective: every collective enters here.

        The shared steps run in a fixed order: the sequence number, the
        run deadline, the status-board note (this op becomes the rank's
        last-known context for death post-mortems), the sanitizer
        signature, then the round — a peerless round on one member — and
        last the charge.  ``finish(round)`` reads the round
        and returns ``(result, words)``; ``cost(P, words, machine)`` is the
        op's closed form.  A non-blocking op posts its round here and
        returns the :class:`Request` whose ``wait()`` runs the fence, the
        reads and the charge.
        """
        seq = self._coll_seq
        self._coll_seq += 1
        resources.check_deadline(op)
        self._transport.note_collective(op, seq)
        sig = None
        if self._san is not None:
            sig = self._san.collective(
                op, seq, self._rank, root=root, reduce_op=reduce_op, value=value
            )
            deposit = deposit._replace(digest=sig.digest)
        tag = ("coll", seq)
        rnd = _MailboxRound(self, tag, deposit)

        def complete() -> Any:
            rnd.wait_posted()
            if sig is not None and rnd.mismatched(sig.digest):
                self._raise_mismatch(tag, sig)
            result, words = finish(rnd)
            seconds = cost(self.size, words, self._ledger.machine)
            if self.size > 1 and words:
                self._ledger.charge_message(self._world_rank, words, seconds)
            else:  # one member, or the zero-word barrier
                self._ledger.charge_time(self._world_rank, seconds)
            return result

        if not nonblocking:
            return complete()
        return self._make_request(op, complete)

    def _fold(self, rnd: Any, op: ReduceOp) -> Any:
        """Fold every member's contribution in group-rank order, the same
        order on every member, so results stay bit-identical."""
        acc = rnd.read(0)
        for src in range(1, self.size):
            acc = op(acc, rnd.read(src))
        return acc

    # -- collectives ---------------------------------------------------------
    #
    # Each collective below is a description: who writes (the deposit),
    # who reads, the fold or assembly (``finish``) and the charged words —
    # the total or the maximum of the words shared at the fence, or the
    # result's.  Charges are the closed-form Table I costs, identical on
    # every member whatever messages moved the bytes.

    def barrier(self) -> None:
        """Synchronize all members; charged as one zero-byte all-reduce."""
        self._collective(
            "barrier", lambda rnd: (None, 0), _barrier_cost
        )

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to all members."""
        self._check_peer(root, "root")
        is_root = self._rank == root

        def finish(rnd):
            result = obj if is_root else rnd.read(root)
            return result, _words_of(result)

        return self._collective(
            "bcast",
            finish,
            cc.bcast_cost,
            _Deposit(send=obj) if is_root else _Deposit(),
            root=root,
            value=obj,
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to ``root`` (returns None elsewhere).

        Every member charges the tree cost of the *exact* total gathered
        words — sizes may differ per rank, so the total is the sum of the
        words shared at the fence.
        """
        self._check_peer(root, "root")
        is_root = self._rank == root

        def finish(rnd):
            out = [rnd.read(src) for src in range(self.size)] if is_root else None
            return out, rnd.total_words()

        return self._collective(
            "gather",
            finish,
            cc.allgather_cost,
            _Deposit(send=value, reader=root, words=_words_of(value)),
            root=root,
            value=value,
        )

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank onto every rank, charged from the
        exact total gathered words (identical on all members even when
        sizes are uneven)."""

        def finish(rnd):
            return [rnd.read(src) for src in range(self.size)], rnd.total_words()

        return self._collective(
            "allgather",
            finish,
            cc.allgather_cost,
            _Deposit(send=value, words=_words_of(value)),
            value=value,
        )

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one value per rank from ``root``.

        The root addresses each member's value to it alone; every member
        charges the cost of the root's *exact* total, the only words
        posted at the fence.
        """
        self._check_peer(root, "root")
        is_root = self._rank == root
        deposit = _Deposit()
        if is_root:
            if values is None or len(values) != self.size:
                raise CommunicatorError(
                    f"scatter root needs exactly {self.size} values, got "
                    f"{None if values is None else len(values)}"
                )
            deposit = _Deposit(
                sends=tuple(
                    (dst, values[dst]) for dst in range(self.size) if dst != root
                ),
                words=sum(_words_of(v) for v in values),
            )

        def finish(rnd):
            if is_root:
                return _copy_payload(values[root]), rnd.total_words()
            return rnd.read(root), rnd.total_words()

        return self._collective(
            "scatter", finish, cc.bcast_cost, deposit, root=root
        )

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any | None:
        """Reduce values to ``root`` with ``op`` (rank-ordered, deterministic).

        Contributions normally share one shape, but ops that broadcast
        (NumPy ufuncs) tolerate uneven ones, so every member charges from
        the *largest* contribution shared at the fence.
        """
        return self._reduce("reduce", value, op, root, nonblocking=False)

    def ireduce(
        self, value: Any, op: ReduceOp = SUM, root: int = 0
    ) -> Request:
        """Nonblocking :meth:`reduce`: ``wait()`` returns the root's
        folded result (``None`` elsewhere) and lands the blocking op's
        exact charge.  The contribution must not be mutated between post
        and ``wait()``."""
        return self._reduce("ireduce", value, op, root, nonblocking=True)

    def _reduce(
        self, name: str, value: Any, op: ReduceOp, root: int, nonblocking: bool
    ) -> Any:
        self._check_peer(root, "root")
        is_root = self._rank == root

        def finish(rnd):
            return (self._fold(rnd, op) if is_root else None), rnd.max_words()

        return self._collective(
            name,
            finish,
            cc.reduce_cost,
            _Deposit(send=value, reader=root, words=_words_of(value)),
            root=root,
            reduce_op=op,
            value=value,
            nonblocking=nonblocking,
        )

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce-then-broadcast; every rank gets the reduction.

        Charged from the *result's* words (identical on every member by
        construction), so even broadcasting ops with uneven contributions
        charge rank-independent costs.
        """

        def finish(rnd):
            acc = self._fold(rnd, op)
            return acc, _words_of(acc)

        return self._collective(
            "allreduce",
            finish,
            cc.allreduce_cost,
            _Deposit(send=value),
            reduce_op=op,
            value=value,
        )

    def reduce_scatter_block(
        self, array: np.ndarray, op: ReduceOp = SUM
    ) -> np.ndarray:
        """Reduce an array then scatter equal blocks along axis 0.

        ``array.shape[0]`` must be divisible by the communicator size, and
        every member must pass the *same shape* (blocks are sliced by the
        folded shape — unlike ``reduce``, broadcasting contributions are
        not meaningful here).  Used by the non-blocked TTM fast path
        (paper Sec. V-B).
        """
        if not isinstance(array, np.ndarray):
            raise TypeError("reduce_scatter_block requires a numpy.ndarray")
        if array.shape[0] % self.size != 0:
            raise CommunicatorError(
                f"axis 0 of shape {array.shape} not divisible by size {self.size}"
            )
        words = _words_of(array)

        def finish(rnd):
            acc = self._fold(rnd, op)
            block = acc.shape[0] // self.size
            lo = self._rank * block
            return np.array(acc[lo : lo + block], copy=True), words

        return self._collective(
            "reduce_scatter_block",
            finish,
            cc.reduce_scatter_cost,
            _Deposit(send=array),
            reduce_op=op,
            value=array,
        )

    # -- communicator construction -------------------------------------------

    def group(self, ranks: Sequence[int]) -> "Communicator":
        """The communicator over this one's ranks ``ranks``, in that order,
        built without a message (cf. ``MPI_Cart_sub``).

        Every member must pass the same ``ranks``.  Its id is derived from
        them, so the same group is one communicator however often it is
        asked for; the whole group in order is this communicator itself,
        with its sequence numbers.  Uncharged: communicator setup is out of
        band in the paper's model.
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
            )
        return self._groups[key]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Communicator(id={self._comm_id!r}, rank={self._rank}/{self.size})"
        )
