"""Pluggable executor backends for :func:`repro.mpi.run_spmd`.

A backend decides *how* the N ranks of an SPMD run execute:

* :class:`ThreadBackend` (``"thread"``) — ranks are Python threads sharing
  one :class:`~repro.mpi.transport.ThreadTransport` and one
  :class:`~repro.mpi.ledger.CostLedger`.  NumPy releases the GIL inside
  BLAS so local linear algebra overlaps, but all pure-Python work is
  interleaved.  Cheap to launch; the default.
* :class:`ProcessBackend` (``"process"``) — ranks are forked
  ``multiprocessing`` processes exchanging ndarrays through
  :class:`~repro.mpi.process_transport.ProcessTransport` (headers pickled,
  payload bytes through POSIX shared memory).  Pure-Python rank code runs
  genuinely in parallel on multi-core hardware, which is what the paper's
  strong/weak-scaling experiments (Fig. 9) actually measure.

Both backends present identical semantics — same collectives (blocking
and non-blocking, each one exchange round over the transport's mailboxes,
with identical results and charges), same deterministic reduction order,
same poisoning/fail-fast behavior on rank error, same deadlock timeout,
same cost-ledger contents — and are held to that by one shared
conformance suite (``tests/mpi/test_backends.py``).

Select a backend per call (``run_spmd(..., backend="process")``) or
globally via the ``REPRO_SPMD_BACKEND`` environment variable.

Process-backend restrictions (it crosses a real process boundary):

* rank functions and arguments reach the children by pickle (warm pool)
  or by ``fork`` (one-shot pool), so closures and lambdas work, but
  mutations they make to parent objects stay in the child;
* per-rank return values come back through a result queue (one per rank,
  so a crashed sibling can never wedge a survivor's report) and must be
  picklable — a rank returning an unpicklable value fails that rank;
* large received arrays are *read-only* zero-copy views
  (:class:`~repro.mpi.process_transport.ShmArrayView`) backed by shared
  memory — unlike the thread backend's private copies, mutating one
  raises; copy (``np.array(view)``) before writing.

Persistent rank pool
--------------------

Forking one interpreter per rank per ``run_spmd`` call dominates short
runs — a benchmark sweep that launches hundreds of SPMD programs spends
most of its wall-clock on ``fork`` and queue setup, not on the kernels it
measures.  The process backend therefore keeps a *pool* of rank workers
warm:

* Pools are keyed by world size and created lazily on the first process
  run of that size (``_RankPool``).  Workers block on a per-rank task
  pipe; dispatching a run costs two pickles and a pipe write per rank
  instead of a fork.
* A task carries ``(fn, args, rank_args, machine, timeout)``.  Large
  ndarray arguments are staged through the shared-memory arena, not the
  task pipe, and mapped copy-on-write by each worker (private and
  writable, valid only while the rank function runs).  The rank
  function itself is pickled *by reference*, so closures and lambdas
  cannot ride the warm pool.  Such a run (probed before any warm pool
  is taken, so none is forked for it), or one whose function the warm
  workers cannot load, gets a *one-shot* pool forked for it: the
  same workers, which inherit the task through ``fork`` and run it
  first, then shut down.  There is one rank body (``_pool_worker``) and
  one collect loop whatever the launch.
* A function redefined after the workers forked never runs in its old
  form.  The parent retires a warm pool that ran a different function
  object under the same qualified name, and each task carries a digest
  of the function's code, which a worker checks against the function it
  resolves (a mismatch is a load failure, so the run goes to a one-shot
  pool).
* Each run gets a fresh ``run_seq``; stragglers from an earlier run that
  are still in an inbox are dropped (and their segments reclaimed) by the
  transport, so runs never see each other's messages.
* Any failure — a raised rank exception, a worker death, a deadlock —
  retires the pool: its workers are shut down and the segments they
  leaked are swept, so the next run starts from fresh workers and
  inboxes.
* Pools are torn down at interpreter exit (``atexit``) or explicitly via
  :func:`shutdown_worker_pools`; teardown sends a sentinel so workers
  unlink their pooled shared-memory segments before exiting.
"""

from __future__ import annotations

import abc
import atexit
import hashlib
import marshal
import os
import pickle
import queue as queue_mod
import threading
import time
import types
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import resources as resources_mod
from repro.analysis.sanitizer import Sanitizer
from repro.config import RuntimeConfig, default_for, set_active_config
from repro.mpi.comm import Communicator
from repro.mpi.errors import DeadlockError, RankDeadError, SpmdError
from repro.mpi.ledger import CostLedger
from repro.resources import ResourceReport
from repro.mpi.process_transport import (
    ProcessTransport,
    decode_borrowed,
    encode_payload,
    privatise_borrowed,
    process_arena,
    reap_stale_segments,
    release_payload,
    StagedValue,
    stage_value,
    unstage_value,
)
from repro.mpi.status import StatusBoard, describe_exitcode
from repro.mpi.transport import ThreadTransport
from repro.perfmodel.machine import MachineSpec

#: Environment variable consulted when ``run_spmd`` gets no ``backend=``.
BACKEND_ENV_VAR = "REPRO_SPMD_BACKEND"

#: Seconds the parent keeps waiting for remaining rank reports after a
#: failure has poisoned the run (bounds cleanup, not healthy execution).
_DRAIN_GRACE = 30.0

#: Seconds to wait for pool workers to honor the shutdown sentinel before
#: terminating them.
_POOL_SHUTDOWN_GRACE = 5.0


class _TaskLoadError(RuntimeError):
    """A pool worker could not deserialize a dispatched task.

    Happens when the rank function pickles by reference in the parent but
    does not resolve in a worker forked before it was defined (fresh
    definitions in a REPL), or resolves to code other than the parent's
    (it was redefined after the worker forked; see :func:`_code_digest`).
    No user code ran to completion, so the executor retires the stale
    pool and reruns the task on a one-shot pool — fork inherits the
    definition for free — instead of failing the run.
    """


def _code_digest(fn: Any) -> bytes | None:
    """A digest of a plain function's compiled code (``None`` for any
    other callable): what a warm worker compares with the function it
    resolves by name, so a definition changed after it forked is never
    run in its stale form."""
    if not isinstance(fn, types.FunctionType):
        return None
    return hashlib.blake2b(marshal.dumps(fn.__code__), digest_size=16).digest()


@dataclass
class SpmdResult:
    """Return values of all ranks plus the run's cost ledger.

    ``resources`` is the run's :class:`~repro.resources.ResourceReport`
    (degradation events, byte totals): backends fold the per-rank
    governor summaries into it.
    """

    values: list[Any]
    ledger: CostLedger
    resources: ResourceReport | None = None

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, rank: int) -> Any:
        return self.values[rank]

    @property
    def modeled_time(self) -> float:
        return self.ledger.modeled_time()


def raise_spmd_failures(failures: dict[int, BaseException]) -> None:
    """Raise :class:`SpmdError` for a run's failures, if any.

    Failure cascades: report only the original failures, not the
    DeadlockErrors induced on innocent ranks by the poisoned transport,
    nor the RankDeadErrors surviving ranks raise about *somebody else's*
    death (the dead rank's own synthesized RankDeadError — where
    ``dead_rank`` equals the reporting rank — stays primary).
    """
    if not failures:
        return
    primary = {
        rank: exc
        for rank, exc in failures.items()
        if not isinstance(exc, DeadlockError)
        and not (isinstance(exc, RankDeadError) and exc.dead_rank != rank)
    }
    raise SpmdError(primary or failures)


def _rank_dead_error(
    rank: int, exitcode: int | None, board: StatusBoard | None
) -> RankDeadError:
    """The parent-side failure for a child that died without reporting."""
    msg = (
        f"rank {rank} died ({describe_exitcode(exitcode)}) "
        f"before reporting a result"
    )
    context = board.last_context(rank) if board is not None else None
    if context:
        msg += f" (last collective: {context})"
    return RankDeadError(msg, dead_rank=rank, exitcode=exitcode)


class ExecutorBackend(abc.ABC):
    """How an SPMD run turns N rank programs into N executions."""

    #: Registry key and the value accepted by ``REPRO_SPMD_BACKEND``.
    name: str

    @abc.abstractmethod
    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: tuple,
        machine: MachineSpec,
        timeout: float,
        rank_args: Sequence[tuple] | None,
        sanitize: int = 0,
        config: RuntimeConfig | None = None,
    ) -> SpmdResult:
        """Execute ``fn(comm, *args[, *rank_args[rank]])`` on every rank.

        ``sanitize`` is the resolved SPMD-sanitizer level (see
        :mod:`repro.analysis.sanitizer`); backends build one
        :class:`~repro.analysis.sanitizer.Sanitizer` per rank at level
        1, finalize it after a successful rank return, and annotate
        deadlock timeouts with the rank's last collective.

        ``config`` is the run's resolved
        :class:`~repro.config.RuntimeConfig`.  ``run_spmd`` installs it
        in the launching process (thread ranks see it directly); the
        process backend additionally ships it with the run's task so its
        workers — a warm pool's were forked long before this run — install
        the same configuration around the rank function.
        """


class ThreadBackend(ExecutorBackend):
    """Ranks as threads in this process (shared transport and ledger)."""

    name = "thread"

    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: tuple,
        machine: MachineSpec,
        timeout: float,
        rank_args: Sequence[tuple] | None,
        sanitize: int = 0,
        config: RuntimeConfig | None = None,
    ) -> SpmdResult:
        # Thread ranks share the launching process, where run_spmd has
        # already installed `config`; nothing to ship.
        transport = ThreadTransport(timeout=timeout)
        ledger = CostLedger(n_ranks, machine)
        values: list[Any] = [None] * n_ranks
        failures: dict[int, BaseException] = {}
        failures_lock = threading.Lock()

        def worker(rank: int) -> None:
            sanitizer = (
                Sanitizer(level=sanitize, world_rank=rank) if sanitize else None
            )
            comm = Communicator(
                transport,
                ledger,
                "world",
                tuple(range(n_ranks)),
                rank,
                sanitizer=sanitizer,
            )
            try:
                extra = rank_args[rank] if rank_args is not None else ()
                values[rank] = fn(comm, *args, *extra)
                if sanitizer is not None:
                    sanitizer.finalize()
            except BaseException as exc:  # noqa: BLE001 - reraised via SpmdError
                if sanitizer is not None and isinstance(exc, DeadlockError):
                    sanitizer.annotate(exc)
                with failures_lock:
                    failures[rank] = exc
                transport.abort(exc)

        threads = [
            threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
            for rank in range(n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        raise_spmd_failures(failures)
        # Thread ranks share one address space: no shm is allocated, so
        # the report is empty by construction (never degraded).
        return SpmdResult(
            values=values, ledger=ledger, resources=ResourceReport()
        )


def _safe_report_blob(
    run_seq: int,
    rank: int,
    value: Any,
    failure: BaseException | None,
    costs,
    rsummary: dict | None = None,
) -> bytes:
    """Pickle a rank report, degrading gracefully on unpicklable contents.

    Pre-pickling in the worker matters: a pickling error inside the
    queue's feeder thread would silently drop the report and wedge the
    parent.  A failure is round-tripped here too (exceptions are small):
    one that pickles but does not unpickle — an ``__init__`` whose
    signature differs from ``args`` — would otherwise escape from the
    parent's ``pickle.loads`` as a bare error.  ``rsummary`` is the rank
    governor's per-run resource summary (plain dict, always picklable).
    """
    if failure is not None:
        try:
            pickle.loads(pickle.dumps(failure))
        except Exception:
            failure = RuntimeError(
                f"rank {rank} raised {type(failure).__qualname__}: {failure} "
                f"(the exception cannot be sent back by pickle)"
            )
    try:
        return pickle.dumps((run_seq, rank, value, failure, costs, rsummary))
    except Exception as exc:
        if failure is None:
            failure = TypeError(
                f"rank {rank} returned a value the process backend cannot "
                f"send back ({exc}); return picklable data or use "
                f"backend='thread'"
            )
        return pickle.dumps((run_seq, rank, None, failure, costs, rsummary))


def _drain_ready_reports(
    queues: dict[int, Any], timeout: float
) -> list[bytes]:
    """Wait for report traffic on per-rank result queues; drain what's ready.

    Rank reports travel one ``multiprocessing.Queue`` *per rank*, never a
    shared one: a queue shared by several writer processes serializes
    them through one shared write semaphore, and a rank SIGKILLed at the
    wrong instant (between its feeder thread's pipe write and the lock
    release — a multi-millisecond window, since the release needs the
    GIL back) dies holding it, wedging every survivor's report until the
    drain deadline.  With per-rank queues each worker is the sole writer
    of its own pipe, so a crash can only ever lose that rank's *own*
    report — which the exit monitor replaces with a synthesized
    :class:`RankDeadError` anyway.

    Blocks up to ``timeout`` for the first readable queue (event-driven
    via ``multiprocessing.connection.wait`` on the reader pipes — the
    parent keeps the write ends open, so readiness always means data,
    never EOF), then drains every ready queue without blocking.  Returns
    the raw blobs, possibly from several ranks; empty on timeout.
    """
    from multiprocessing.connection import wait as _wait_readers

    readers = {q._reader: q for q in queues.values()}
    try:
        ready = _wait_readers(list(readers), timeout=timeout)
    except OSError:  # pragma: no cover - torn-down handle at shutdown
        return []
    blobs: list[bytes] = []
    for reader in ready:
        q = readers[reader]
        while True:
            try:
                blobs.append(q.get_nowait())
            except (queue_mod.Empty, OSError, ValueError):
                break
    return blobs


def _run_one_rank(
    rank: int,
    n_ranks: int,
    fn: Callable[..., Any],
    args: tuple,
    extra: tuple,
    machine: MachineSpec,
    timeout: float,
    inboxes,
    abort_event,
    run_seq: int,
    transport_opts: dict,
    stage: Callable[[Any], Any],
) -> tuple[Any, BaseException | None, Any, dict | None]:
    """Execute one rank against a fresh transport; always cleans up.

    ``stage`` maps a healthy rank's return value to what is reported; it
    runs before the rank's governor is summarised, so its allocation is
    charged and summarised like any other.
    """
    topts = dict(transport_opts)
    # The run's resolved RuntimeConfig is installed around everything
    # rank-side — warm workers were forked long before this run, so the
    # task (not the environment) is the source of truth.
    config: RuntimeConfig | None = topts.pop("config", None)
    previous_config = set_active_config(config) if config is not None else None
    # The run deadline ships as an absolute monotonic timestamp (fork
    # children share the parent's clock), so every rank counts down the
    # same wall-clock budget.
    deadline = topts.pop("deadline", None)
    previous_deadline = resources_mod.set_active_deadline(deadline)
    try:
        # Run options ride the dispatch as picklable primitives; the
        # status board is attached rank-side here.
        sanitize: int = topts.pop("sanitize", 0)
        board_name: str | None = topts.pop("status", None)
        board = None
        if board_name is not None:
            try:
                board = StatusBoard.attach(board_name, n_ranks)
            except FileNotFoundError:  # pragma: no cover - board already audited
                board = None
        gov = resources_mod.governor()
        gov.configure()
        transport = ProcessTransport(
            rank, inboxes, abort_event, timeout=timeout, run_seq=run_seq,
            status=board,
        )
        ledger = CostLedger(n_ranks, machine)
        sanitizer = (
            Sanitizer(level=sanitize, world_rank=rank) if sanitize else None
        )
        comm = Communicator(
            transport,
            ledger,
            "world",
            tuple(range(n_ranks)),
            rank,
            sanitizer=sanitizer,
        )
        value: Any = None
        failure: BaseException | None = None
        try:
            if board is not None:
                board.mark_running(rank, os.getpid())
            value = fn(comm, *args, *extra)
            if sanitizer is not None:
                sanitizer.finalize()
            if board is not None:
                board.mark_done(rank)
        except BaseException as exc:  # noqa: BLE001 - reraised via SpmdError
            if sanitizer is not None and isinstance(exc, DeadlockError):
                sanitizer.annotate(exc)
            failure = exc
            transport.abort(exc)
        finally:
            try:
                transport.end_run()
            finally:
                if board is not None:
                    board.close()
        costs = ledger.rank_costs(rank)
        if failure is None:
            try:
                value = stage(value)
            except Exception as exc:  # noqa: BLE001 - reraised via SpmdError
                value, failure = None, exc
        return value, failure, costs, gov.summary()
    finally:
        resources_mod.set_active_deadline(previous_deadline)
        if config is not None:
            set_active_config(previous_config)


def _pool_worker(
    rank: int,
    n_ranks: int,
    tasks,
    result_queue,
    inboxes,
    abort_event,
    first: tuple | None = None,
    writers: Sequence = (),
) -> None:
    """The one process-rank body: loop over runs until the sentinel.

    ``first`` is a one-shot pool's ``(run_seq, task)``, inherited through
    ``fork`` (never pickled) and run before the task pipe is read.
    ``writers`` are the pool's task-pipe write ends this worker inherited:
    it closes them, so the parent holds the only ones and its death reads
    as the end of the pipe, on which the worker exits as on the sentinel
    and unlinks what the dead parent owned.  A
    dispatched run's array arguments are borrowed: copy-on-write mappings
    of segments the parent staged and recycles once every report is in
    (:func:`~repro.mpi.process_transport.decode_borrowed`).  So before it
    reports, the worker drops the run's references, and any mapping that
    something still references — a block a rank function kept — is made
    private, page by page: nothing that escapes a run ever shows the next
    run's bytes.
    """
    # The segment behind the last report's arrays.  It stays this
    # worker's: the parent only borrows it (it reads every report before
    # it sends anything else), so the next item of any kind takes it back.
    held: list = []

    def stage(value: Any) -> Any:
        staged, shm = stage_value(value, process_arena())
        if shm is not None:
            held.append(shm)
        return staged

    def take_back() -> None:
        while held:
            process_arena().recycle(held.pop())

    # The mappings behind the current run's borrowed arguments.
    mapped: weakref.WeakSet = weakref.WeakSet()

    parent = os.getppid()
    for writer in writers:
        writer.close()
    orphaned = False
    try:
        while True:
            if first is not None:
                (run_seq, task), first = first, None
            else:
                try:
                    item = tasks.recv()
                except EOFError:
                    # A live parent sends the sentinel before it closes
                    # the pipe: it died, and nobody will send again.
                    orphaned = True
                    break
                take_back()
                if item is None:
                    break
                run_seq, task = item
            value: Any = None
            failure: BaseException | None = None
            costs = None
            rsummary: dict | None = None
            try:
                # Unpickle here, not in recv(): the rank function is
                # pickled by reference and may not resolve in a worker
                # forked before it was defined — that must fail the rank,
                # not crash the worker inside the pipe machinery.
                # Arguments are staged once in the parent's arena and
                # borrowed copy-on-write: rank code gets private writable
                # arrays, as under fork, and copies only what it touches.
                if isinstance(task, bytes):
                    task = decode_borrowed(pickle.loads(task), mapped)
                fn, args, extra, machine, timeout, topts = task
                if topts.pop("code", None) not in (None, _code_digest(fn)):
                    raise RuntimeError(
                        f"{fn.__qualname__} was redefined after this "
                        f"worker forked"
                    )
            except BaseException as exc:  # noqa: BLE001
                failure = _TaskLoadError(
                    f"rank {rank} could not load the dispatched task: {exc!r}"
                )
                abort_event.set()
            else:
                value, failure, costs, rsummary = _run_one_rank(
                    rank, n_ranks, fn, args, extra, machine, timeout,
                    inboxes, abort_event, run_seq, transport_opts=topts,
                    stage=stage,
                )
                del fn, args, extra
            del task
            report = _safe_report_blob(run_seq, rank, value, failure, costs,
                                       rsummary)
            # Drop the run's references *before* reporting (the parent
            # recycles the segments behind the borrowed arguments once
            # every report is in), and break the exception<->frame
            # reference cycle: traceback frames pin shm-backed views,
            # which would keep their segments leased until a cyclic
            # collection.  A borrowed block that something
            # still references (a rank function kept it) is made
            # private, so the next run's staging never shows through.
            if failure is not None:
                failure.__traceback__ = None
                failure.__context__ = None
                failure.__cause__ = None
            del value, failure, costs, rsummary
            privatise_borrowed(mapped)
            result_queue.put(report)
    finally:
        take_back()
        process_arena().teardown()
        if orphaned:
            # Its staging arena and status boards: nobody else is left
            # to unlink them.
            reap_stale_segments([parent], exited=True)
        # Messages still queued for a peer are stale once the worker
        # leaves (nobody drains a retired pool's inboxes), and a feeder
        # may wait forever on the write lock of an inbox a killed worker
        # left held: exit without joining it.
        for inbox in inboxes:
            inbox.cancel_join_thread()


class _RankPool:
    """A set of rank worker processes for one world size.

    A warm pool serves run after run from its task pipes.  ``first`` —
    ``(fn, args, rank_args, machine, timeout, transport_opts)`` — makes a
    *one-shot* pool instead: its workers inherit that run through
    ``fork`` and run it before anything else, and the collect retires the
    pool once the reports are in.
    """

    def __init__(self, n_ranks: int, first: tuple | None = None):
        import multiprocessing

        self._ctx = multiprocessing.get_context("fork")
        self.n_ranks = n_ranks
        self.run_seq = 0
        self.one_shot = first is not None
        self.inboxes = [self._ctx.Queue() for _ in range(n_ranks)]
        # Tasks travel a plain pipe per rank: a send is written at once,
        # with no feeder thread to start (a worker reads only while idle,
        # and only the parent writes).
        self.tasks = [self._ctx.Pipe(duplex=False) for _ in range(n_ranks)]
        # One result queue per rank (see _drain_ready_reports): a shared
        # queue's write lock is a single point of failure under SIGKILL.
        self.result_queues = [self._ctx.Queue() for _ in range(n_ranks)]
        self.abort_event = self._ctx.Event()
        self.staged: list = []  # arena segments loaned to the active run
        # The function object each warm run dispatched, by qualified name.
        self.ran: dict[tuple[str, str], weakref.ref] = {}
        # Shared liveness/death board: children stamp their pid and last
        # collective, the parent's exit monitor records deaths on it so
        # survivors raise RankDeadError instead of deadlock-timing out.
        self.board = StatusBoard.create(n_ranks)
        tasks: list = [None] * n_ranks
        if first is not None:
            fn, args, rank_args, machine, timeout, topts = first
            self.run_seq = 1
            topts = dict(topts, status=self.board.name)
            tasks = [
                (self.run_seq, (fn, args,
                                rank_args[rank] if rank_args is not None else (),
                                machine, timeout, topts))
                for rank in range(n_ranks)
            ]
        self.procs = [self._spawn(rank, tasks[rank]) for rank in range(n_ranks)]

    def _spawn(self, rank: int, first: tuple | None):
        p = self._ctx.Process(
            target=_pool_worker,
            args=(
                rank,
                self.n_ranks,
                self.tasks[rank][0],
                self.result_queues[rank],
                self.inboxes,
                self.abort_event,
                first,
                [writer for _, writer in self.tasks],
            ),
            name=f"spmd-pool-{self.n_ranks}-rank-{rank}",
            daemon=True,
        )
        p.start()
        return p

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def redefined(self, fn: Callable[..., Any]) -> bool:
        """Whether a different function object ran here under ``fn``'s
        qualified name: ``fn`` was redefined after the workers forked, and
        they would resolve the name to their old copy."""
        if not isinstance(fn, types.FunctionType):
            return False
        ref = self.ran.get((fn.__module__, fn.__qualname__))
        return ref is not None and ref() is not fn

    def dispatch(
        self,
        fn: Callable[..., Any],
        args: tuple,
        rank_args: Sequence[tuple] | None,
        machine: MachineSpec,
        timeout: float,
        transport_opts: dict | None = None,
    ) -> int | None:
        """Enqueue one run on every warm worker.

        ``fn`` is known to pickle (the caller probed it).  Returns the
        run's sequence number, or ``None`` when the arguments are not
        picklable and the caller must run the task on a one-shot pool.
        Ndarray arguments are staged through the parent's arena *once*,
        shared by every rank (workers map them copy-on-write and the
        parent recycles the segments after the run), so only headers
        travel the task pipe and a P-rank dispatch costs one staged copy,
        not P.
        """
        arena = process_arena()
        tasks = []
        segments: list = []
        self.run_seq += 1
        self.board.reset()
        topts = dict(
            transport_opts or {}, status=self.board.name, code=_code_digest(fn)
        )
        try:
            # Workers map these privately (decode_borrowed).
            common = (fn, args, machine, timeout)
            shared = encode_payload(common, segments, arena)
            for rank in range(self.n_ranks):
                extra = rank_args[rank] if rank_args is not None else ()
                encoded_extra = encode_payload(extra, segments, arena)
                fn_enc, args_enc, machine_enc, timeout_enc = shared
                tasks.append(
                    (
                        self.run_seq,
                        pickle.dumps(
                            (fn_enc, args_enc, encoded_extra, machine_enc,
                             timeout_enc, topts)
                        ),
                    )
                )
        except Exception:
            for shm in segments:
                arena.recycle(shm)
            self.run_seq -= 1
            return None
        self.staged = segments
        for rank, task in enumerate(tasks):
            self.tasks[rank][1].send(task)
        if isinstance(fn, types.FunctionType):
            self.ran[(fn.__module__, fn.__qualname__)] = weakref.ref(fn)
        return self.run_seq

    def reclaim_staged(self) -> None:
        """Take staged argument segments back once the run is over."""
        arena = process_arena()
        for shm in self.staged:
            arena.recycle(shm)
        self.staged = []

    def drain_inboxes(self) -> None:
        """Reclaim undelivered messages left over by the finished run."""
        for inbox in self.inboxes:
            while True:
                try:
                    blob = inbox.get_nowait()
                except (queue_mod.Empty, OSError, ValueError):
                    break
                try:
                    _seq, _key, encoded = pickle.loads(blob)
                    release_payload(encoded)
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass

    def shutdown(self) -> None:
        """Stop the workers (gracefully first, so they unlink segments).

        Every queue interaction tolerates ``BrokenPipeError``/``EPIPE``
        and closed-queue errors: at interpreter exit workers may already
        be dead (crashed ranks, daemon reaping), and teardown must not
        spray tracebacks for pipes nobody is reading.
        """
        for p, (_, writer) in zip(self.procs, self.tasks):
            if p.is_alive():
                try:
                    writer.send(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + _POOL_SHUTDOWN_GRACE
        for p in self.procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in self.procs:
            if p.is_alive():  # pragma: no cover - wedged worker
                p.terminate()
                p.join()
        # Undelivered messages are not drained: a worker killed mid-write
        # leaves half a message that a read would wait on forever.  The
        # callers' creator-pid sweep reclaims their segments.
        for q in [*self.inboxes, *self.result_queues]:
            try:
                q.close()
                q.join_thread()
            except (OSError, ValueError):  # pragma: no cover - dead feeder
                pass
        for reader, writer in self.tasks:
            reader.close()
            writer.close()
        self.board.close()
        self.board.unlink()


_POOLS: dict[int, _RankPool] = {}
_POOLS_LOCK = threading.Lock()


def _retire_pool(pool: _RankPool) -> None:
    """Shut ``pool`` down for good and sweep what its workers leaked.

    A pool is retired after any failure — exactly when a killed or
    crashed worker may have leaked segments (arena buckets, in-flight
    payloads) — and after a one-shot pool's run, so the creator-pid sweep
    follows the shutdown.
    """
    with _POOLS_LOCK:
        if _POOLS.get(pool.n_ranks) is pool:
            del _POOLS[pool.n_ranks]
    pool.reclaim_staged()
    pool.shutdown()
    reap_stale_segments(p.pid for p in pool.procs)


def shutdown_worker_pools() -> None:
    """Tear down every persistent rank pool (idempotent).

    Called automatically at interpreter exit; call it explicitly to
    release the warm workers and their pooled shared-memory segments —
    e.g. between phases of a benchmark, or after changing environment
    variables that workers inherit at fork time.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
    for pool in pools:
        _retire_pool(pool)
    # The dispatching side stages task arguments through its own arena;
    # release those pooled segments along with the workers.
    process_arena().teardown()


atexit.register(shutdown_worker_pools)


def _get_pool(n_ranks: int, fn: Callable[..., Any]) -> _RankPool:
    """The warm pool for ``n_ranks``, replacing one whose worker died
    between runs (a death may leave an inbox's write lock held) or whose
    workers hold an older definition of ``fn``."""
    pool = _POOLS.get(n_ranks)
    if pool is not None and (not pool.alive() or pool.redefined(fn)):
        _retire_pool(pool)
    with _POOLS_LOCK:
        pool = _POOLS.get(n_ranks)
        if pool is None:
            pool = _POOLS[n_ranks] = _RankPool(n_ranks)
        return pool


class ProcessBackend(ExecutorBackend):
    """Ranks as forked processes with shared-memory message payloads.

    A picklable rank function rides the warm rank pool; a closure or
    lambda (or a function the pool's workers cannot resolve) runs on a
    one-shot pool forked for the run.
    """

    name = "process"

    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: tuple,
        machine: MachineSpec,
        timeout: float,
        rank_args: Sequence[tuple] | None,
        sanitize: int = 0,
        config: RuntimeConfig | None = None,
    ) -> SpmdResult:
        # The resolved RuntimeConfig (and sanitize level) ride the run's
        # task (never the environment: warm pool workers were forked long
        # ago and would not see an env change).
        transport_opts = dict(
            sanitize=sanitize, config=config,
            # The run deadline (installed by the executor) ships as an
            # absolute monotonic timestamp: fork children share the
            # parent's clock, so every rank counts down the same budget.
            deadline=resources_mod.active_deadline(),
        )
        # Probe the function first: a closure or lambda goes straight to a
        # one-shot pool, and never forks a warm pool it would not use.
        pool: _RankPool | None = None
        try:
            pickle.dumps(fn)
        except Exception:
            pass
        else:
            pool = _get_pool(n_ranks, fn)
        # The parent stages dispatch payloads through its arena: account
        # those allocations as the run's parent-side (-1) summary.
        resources_mod.governor().configure()
        if pool is not None:
            run_seq = pool.dispatch(
                fn, args, rank_args, machine, timeout,
                transport_opts=transport_opts,
            )
            if run_seq is not None:
                result = self._collect(pool, run_seq, n_ranks, machine)
                if result is not None:
                    return result
        # Not picklable, or the warm workers could not load it (that
        # pool is retired): fork a one-shot pool that inherits the run.
        pool = _RankPool(
            n_ranks,
            first=(fn, args, rank_args, machine, timeout, transport_opts),
        )
        return self._collect(pool, pool.run_seq, n_ranks, machine)

    def _collect(
        self, pool: _RankPool, run_seq: int, n_ranks: int, machine: MachineSpec
    ) -> SpmdResult | None:
        """Gather one run's reports into an :class:`SpmdResult`.

        A failed run retires its pool, as does the end of a one-shot run;
        a healthy warm pool takes back what the run left behind.  Returns
        ``None`` when the warm workers could not load the dispatched
        function, so no user code ran to completion — the caller reruns
        it on a one-shot pool.
        """
        healthy = False
        try:
            values, failures, ledger, rsummaries = self._collect_pooled_inner(
                pool, run_seq, n_ranks, machine
            )
            healthy = not failures and not pool.abort_event.is_set()
        finally:
            if healthy and not pool.one_shot:
                pool.drain_inboxes()
                pool.reclaim_staged()
            else:
                _retire_pool(pool)
        if any(
            isinstance(exc, _TaskLoadError) for exc in failures.values()
        ) and not any(
            isinstance(exc, RankDeadError) for exc in failures.values()
        ):
            return None
        raise_spmd_failures(failures)
        return SpmdResult(
            values=values,
            ledger=ledger,
            resources=ResourceReport.from_rank_summaries(rsummaries),
        )

    def _collect_pooled_inner(
        self, pool: _RankPool, run_seq: int, n_ranks: int, machine: MachineSpec
    ) -> tuple[list[Any], dict[int, BaseException], CostLedger, dict]:
        values: list[Any] = [None] * n_ranks
        failures: dict[int, BaseException] = {}
        ledger = CostLedger(n_ranks, machine)
        rsummaries: dict[int, dict | None] = {}
        pending = set(range(n_ranks))
        # No cap on healthy execution: like the thread backend's join, the
        # parent waits as long as ranks are alive — deadlocks are detected
        # *inside* ranks by the transport timeout.  Only once the run is
        # poisoned does a drain deadline bound the wait for the rest.
        drain_deadline: float | None = None
        while pending:
            blobs = _drain_ready_reports(
                {rank: pool.result_queues[rank] for rank in sorted(pending)},
                timeout=0.1,
            )
            if not blobs:
                for rank in sorted(pending):
                    if pool.procs[rank].is_alive():
                        continue
                    # A pool worker never exits on its own: any death is a
                    # failure (segfault, os._exit in rank code, kill).
                    # Record it on the status board BEFORE poisoning the
                    # run, so survivors woken by the abort see who died.
                    exitcode = pool.procs[rank].exitcode
                    pool.board.mark_dead(rank, exitcode)
                    pool.abort_event.set()
                    failures[rank] = _rank_dead_error(
                        rank, exitcode, pool.board
                    )
                    pending.discard(rank)
                if drain_deadline is None and (
                    failures or pool.abort_event.is_set()
                ):
                    drain_deadline = time.monotonic() + _DRAIN_GRACE
                if drain_deadline is not None and (
                    time.monotonic() > drain_deadline
                ):
                    for rank in sorted(pending):
                        failures[rank] = DeadlockError(
                            f"rank {rank} did not report within "
                            f"{_DRAIN_GRACE:g}s of the run being poisoned"
                        )
                    pending.clear()
                continue
            for blob in blobs:
                msg_seq, rank, value, failure, costs, rsummary = (
                    pickle.loads(blob)
                )
                if msg_seq != run_seq:  # pragma: no cover - straggler report
                    continue
                pending.discard(rank)
                rsummaries[rank] = rsummary
                if costs is not None:
                    ledger.install_rank(rank, costs)
                if failure is not None:
                    failures[rank] = failure
                elif isinstance(value, StagedValue):
                    values[rank] = unstage_value(value)
                else:
                    values[rank] = value
        # The parent's staging governor has counted this run since the
        # caller configured it: its summary is the -1 slot.
        rsummaries[-1] = resources_mod.governor().summary()
        return values, failures, ledger, rsummaries


_BACKENDS: dict[str, type[ExecutorBackend]] = {
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, alphabetically."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(backend: str | ExecutorBackend | None) -> ExecutorBackend:
    """Turn a ``backend=`` argument into a backend instance.

    ``None`` falls back to the run's resolved config (the
    ``REPRO_SPMD_BACKEND`` environment variable outside a run), then to
    ``"thread"``.  Instances pass through unchanged.
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    name = backend if backend is not None else str(default_for("backend"))
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown SPMD backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return cls()

