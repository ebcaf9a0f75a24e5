"""Exception hierarchy for the simulated MPI runtime.

A full ``/dev/shm`` is not among them: an allocation it refuses degrades
to the pickle route (see :mod:`repro.resources`) instead of failing the
run.
"""

from __future__ import annotations


class MpiError(RuntimeError):
    """Base class for all simulated-MPI failures."""


class DeadlockError(MpiError):
    """A blocking receive or collective waited past its timeout.

    In an SPMD program this almost always means a mismatched send/recv pair,
    a collective invoked by only a subset of the communicator, or mismatched
    collective ordering between ranks.  Under ``REPRO_SANITIZE=1`` the
    sanitizer annotates the error with the last collective the rank entered
    (operation, sequence number, call site), so post-mortems name the hung
    call instead of a bare timeout.
    """


class RankDeadError(MpiError):
    """A sibling rank process died (crash, signal, ``os._exit``).

    Raised promptly on every surviving rank — and synthesized by the
    parent for the dead rank itself — when the process backend's monitor
    observes a child exit without a report, instead of letting the
    survivors spin out the full deadlock timeout.  Carries the dead
    rank, its exit code (negative values are ``-signum``), and, when the
    run had a status board, the dead rank's last recorded collective
    context.
    """

    def __init__(
        self,
        message: str,
        dead_rank: int,
        exitcode: int | None = None,
    ):
        super().__init__(message)
        self.dead_rank = dead_rank
        self.exitcode = exitcode

    def __reduce__(self):
        # Exception.__reduce__ replays only self.args; replay the full
        # signature so instances survive the worker->parent pickle hop.
        return (type(self), (self.args[0], self.dead_rank, self.exitcode))


class DeadlineExceededError(MpiError):
    """The run blew past its cooperative deadline (``REPRO_DEADLINE``).

    Checked at collective entries, blocking receives and the CLI's file
    steps (``input read``, ``model save``): every rank that reaches a
    check after the deadline raises promptly, naming the operation it
    was in and the elapsed time, so a stalled world converges to a clean
    multi-rank failure within seconds instead of burning the full
    deadlock timeout.  The deadline is an absolute monotonic timestamp
    fixed in the launching process before any rank starts, so every rank
    counts down the same budget.
    """


class CommunicatorError(MpiError):
    """Invalid communicator construction or usage (bad rank, bad group...)."""


class SanitizerError(MpiError):
    """Base class for SPMD sanitizer diagnostics (``REPRO_SANITIZE=1``).

    Every concrete subclass carries rank context (group rank, world rank)
    and the offending call site in its message, so a failure names the
    line of SPMD code that broke the protocol, not runtime internals.
    """


class CollectiveMismatchError(SanitizerError):
    """Ranks of one communicator posted diverging collectives.

    Raised instead of the deadlock the divergence would otherwise cause:
    the sanitizer cross-checks a per-collective signature digest (operation
    name, sequence number, root, reduction op) carried in every message
    of the collective's exchange round, and reports every diverging rank
    with its call site.
    """


class RequestLeakError(SanitizerError):
    """A non-blocking request was never waited before finalize.

    An unwaited request means deferred completion (and its ledger charge)
    never ran — a correctness bug even when the payload was delivered by
    the eager protocol.  The message lists every leaked request with the
    posting call site.
    """


class RequestStateError(SanitizerError):
    """A non-blocking request was waited more than once.

    The runtime caches the completed value, so a double wait *works*, but
    under MPI discipline a request handle is dead after its wait; a second
    wait usually indicates confused pipeline bookkeeping.
    """


def _describe_failure(exc: BaseException) -> str:
    detail = f"{type(exc).__name__}: {exc}"
    notes = getattr(exc, "__notes__", None)
    if notes:
        detail += " [" + "; ".join(str(n) for n in notes) + "]"
    return detail


class SpmdError(MpiError):
    """One or more ranks of an SPMD section raised an exception.

    Carries the per-rank exceptions so tests can assert on the root cause.
    Exception notes (e.g. the sanitizer's collective context on deadlocks)
    are folded into the summary line.
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        detail = "; ".join(
            f"rank {rank}: {_describe_failure(exc)}"
            for rank, exc in sorted(self.failures.items())
        )
        super().__init__(f"{len(self.failures)} rank(s) failed: {detail}")
