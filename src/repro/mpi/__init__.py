"""Simulated distributed-memory message-passing runtime.

This package replaces MPI for the reproduction: ranks execute under a
pluggable executor backend — threads sharing an in-process transport, or
OS processes exchanging ndarrays through POSIX shared memory — and
every operation charges an alpha-beta-gamma cost ledger so that modeled
runtimes of real executions can be reported (see DESIGN.md, substitution
table).

The process backend has a shared-memory fast path: a persistent rank
pool amortizes launch cost across ``run_spmd`` calls (see
:mod:`repro.mpi.backends`), a segment arena recycles shm segments and
hands receivers read-only zero-copy :class:`ShmArrayView`\\ s (see
:mod:`repro.mpi.process_transport`).  Every collective, on either
backend, is one exchange round over the transport's mailboxes: each
member sends one message to each peer.
The only shared-memory limit is the size of ``/dev/shm``: an allocation
it refuses degrades to the pickle route and is recorded on the run's
:class:`ResourceReport` (see :mod:`repro.resources`).

Public surface:

* :func:`run_spmd` — launch an SPMD function on N ranks.
* :class:`Communicator` — mpi4py-flavoured point-to-point + collectives.
* :class:`CartGrid` — N-way Cartesian processor grids with mode row/column
  sub-communicators (paper Sec. IV).
* :data:`SUM`/:data:`MAX`/:data:`MIN`/:data:`PROD` — reduction operators.
* :class:`CostLedger` — per-rank modeled time / flops / words accounting.
* :class:`ThreadBackend` / :class:`ProcessBackend` — executor backends,
  selectable per call (``run_spmd(..., backend="process")``) or via the
  ``REPRO_SPMD_BACKEND`` environment variable.
"""

from repro.mpi.comm import Communicator, Request
from repro.mpi.cart import CartGrid
from repro.mpi.backends import (
    BACKEND_ENV_VAR,
    ExecutorBackend,
    ProcessBackend,
    ThreadBackend,
    available_backends,
    resolve_backend,
    shutdown_worker_pools,
)
from repro.mpi.executor import SpmdResult, run_spmd
from repro.faults import (
    FAULTS_ENV_VAR,
    FaultSpec,
    RetryPolicy,
    resolve_faults,
)
from repro.mpi.ledger import CostLedger, RankCosts
from repro.mpi.process_transport import (
    ProcessTransport,
    SegmentArena,
    ShmArrayView,
    process_arena,
)
from repro.mpi.reduce_ops import MAX, MIN, PROD, SUM, ReduceOp
from repro.mpi.transport import ThreadTransport, TransportBase
from repro.analysis.sanitizer import SANITIZE_ENV_VAR, Sanitizer
from repro.resources import DegradationEvent, ResourceReport
from repro.mpi.errors import (
    BufferMismatchError,
    CollectiveMismatchError,
    CommunicatorError,
    DeadlineExceededError,
    DeadlockError,
    FaultInjectedError,
    MpiError,
    RankDeadError,
    RequestLeakError,
    RequestStateError,
    SanitizerError,
    SpmdError,
)

__all__ = [
    "Communicator",
    "Request",
    "CartGrid",
    "SpmdResult",
    "run_spmd",
    "CostLedger",
    "RankCosts",
    "ReduceOp",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "TransportBase",
    "ThreadTransport",
    "ProcessTransport",
    "SegmentArena",
    "ShmArrayView",
    "process_arena",
    "ExecutorBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_backends",
    "resolve_backend",
    "shutdown_worker_pools",
    "BACKEND_ENV_VAR",
    "SANITIZE_ENV_VAR",
    "FAULTS_ENV_VAR",
    "FaultSpec",
    "RetryPolicy",
    "resolve_faults",
    "Sanitizer",
    "ResourceReport",
    "DegradationEvent",
    "MpiError",
    "DeadlockError",
    "DeadlineExceededError",
    "RankDeadError",
    "FaultInjectedError",
    "BufferMismatchError",
    "CommunicatorError",
    "SpmdError",
    "SanitizerError",
    "CollectiveMismatchError",
    "RequestLeakError",
    "RequestStateError",
]
