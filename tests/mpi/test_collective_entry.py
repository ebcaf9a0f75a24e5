"""Every collective's entry checks, on both transports.

One parametrized sweep over the twelve collectives plus ``split``, at one
and three ranks, on the thread and the process backend.  Each case
asserts the four concerns the communicator applies at its one collective
entry point:

* an expired run deadline raises ``DeadlineExceededError`` naming the op
  at entry (for a non-blocking op: at the post, not inside ``wait()``);
* a ``site=<op>:nth=2`` fault fires on the second call;
* at ``sanitize=1`` the op is flagged against a different op, with both
  call sites named;
* the ledger charge equals the :mod:`repro.perfmodel.collectives`
  closed form.

The deadline, fault and ledger checks run twice: unsanitized, and at
``sanitize=1``, where the sanitizer records the call's signature at the
same entry point and a protocol digest rides every message of the round.
The sanitizer must not move the deadline check, the fault site's count
or the charge.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import resources
from repro.mpi import (
    SUM,
    CollectiveMismatchError,
    DeadlineExceededError,
    FaultInjectedError,
    SpmdError,
    run_spmd,
    shutdown_worker_pools,
)
from repro.perfmodel import collectives as cc

#: Six float64 words: divisible into blocks at P = 1 and 3.
_X = np.arange(6.0)
_W = 6

#: One call per collective, each on its own line so the sanitizer's call
#: sites tell them apart.  Non-blocking posts are waited at once.
_CALLS = {
    "barrier": lambda comm: comm.barrier(),
    "bcast": lambda comm: comm.bcast(_X, root=0),
    "gather": lambda comm: comm.gather(_X, root=0),
    "allgather": lambda comm: comm.allgather(_X),
    "scatter": lambda comm: comm.scatter(
        [_X] * comm.size if comm.rank == 0 else None, root=0
    ),
    "reduce": lambda comm: comm.reduce(_X, SUM, root=0),
    "allreduce": lambda comm: comm.allreduce(_X, SUM),
    "reduce_scatter_block": lambda comm: comm.reduce_scatter_block(_X, SUM),
    "alltoall": lambda comm: comm.alltoall([_X] * comm.size),
    "ireduce": lambda comm: comm.ireduce(_X, SUM, root=0).wait(),
    "iallreduce": lambda comm: comm.iallreduce(_X, SUM).wait(),
    "ireduce_scatter_block": lambda comm: comm.ireduce_scatter_block(
        _X, SUM
    ).wait(),
    "split": lambda comm: comm.split(comm.rank % 2),
}

_OPS = sorted(_CALLS)


def _charge(op: str, p: int, machine) -> tuple[float, int, int]:
    """The closed-form ``(seconds, words, messages)`` one call charges."""
    if op == "split":
        return 0.0, 0, 0
    if op == "barrier":
        return cc.allreduce_cost(p, 1, machine), 0, 0
    cost, words = {
        "bcast": (cc.bcast_cost, _W),
        "gather": (cc.allgather_cost, _W * p),
        "allgather": (cc.allgather_cost, _W * p),
        "scatter": (cc.bcast_cost, _W * p),
        "reduce": (cc.reduce_cost, _W),
        "ireduce": (cc.reduce_cost, _W),
        "allreduce": (cc.allreduce_cost, _W),
        "iallreduce": (cc.allreduce_cost, _W),
        "reduce_scatter_block": (cc.reduce_scatter_cost, _W),
        "ireduce_scatter_block": (cc.reduce_scatter_cost, _W),
        "alltoall": (cc.alltoall_cost, _W * p),
    }[op]
    if p == 1:
        return cost(p, words, machine), 0, 0
    return cost(p, words, machine), words, 1


def _call_once(comm, op):
    _CALLS[op](comm)


def _after_deadline(comm, op):
    time.sleep(max(resources.remaining_deadline(), 0.0) + 0.01)
    _CALLS[op](comm)


def _call_twice(comm, op):
    for nth in (1, 2):
        try:
            _CALLS[op](comm)
        except FaultInjectedError as exc:
            raise RuntimeError(f"call {nth}: {exc}") from None


def _rank0_diverges(comm, op, other):
    _CALLS[op if comm.rank == 0 else other](comm)


def _signature(comm, op):
    _CALLS[op](comm)
    return comm.sanitizer.current.describe()


def _site(op: str) -> str:
    return f"test_collective_entry.py:{_CALLS[op].__code__.co_firstlineno}"


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: every case names its transport."""
    return None


@pytest.fixture(scope="module", params=["thread", "process"])
def backend(request):
    """The backend to run on."""
    yield request.param
    if request.param == "process":
        shutdown_worker_pools()


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("op", _OPS)
class _EntryChecks:
    """The entry checks that hold whatever the sanitizer level."""

    #: Sanitizer level every run of these checks uses.
    sanitize = 0

    def test_expired_deadline_raises_at_entry(self, backend, op, p):
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                p, _after_deadline, op, backend=backend, deadline=0.05,
                sanitize=self.sanitize, timeout=20.0,
            )
        failures = exc_info.value.failures
        assert set(failures) == set(range(p))
        for exc in failures.values():
            assert isinstance(exc, DeadlineExceededError), repr(exc)
            assert str(exc).endswith(f" in {op}"), str(exc)

    def test_fault_site_fires_on_the_second_call(self, backend, op, p):
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                p, _call_twice, op, backend=backend, timeout=20.0,
                faults=f"rank=0:site={op}:nth=2:kind=exception",
                sanitize=self.sanitize,
            )
        msg = str(exc_info.value.failures[0])
        assert msg.startswith("call 2: ") and f"site '{op}'" in msg, msg

    def test_ledger_charge_is_the_closed_form(self, backend, op, p):
        res = run_spmd(
            p, _call_once, op, backend=backend, sanitize=self.sanitize,
            timeout=20.0,
        )
        seconds, words, messages = _charge(op, p, res.ledger.machine)
        for rank in range(p):
            row = res.ledger.rank_costs(rank)
            assert (row.time, row.words_sent, row.messages) == (
                seconds,
                words,
                messages,
            )


class TestCollectiveEntry(_EntryChecks):
    """The checks unsanitized, plus the sanitizer's own entry check."""

    def test_sanitizer_flags_a_different_op(self, backend, op, p):
        if p == 1:
            # Nothing to diverge from: the signature is recorded at the
            # entry point with the caller's site.
            res = run_spmd(
                1, _signature, op, backend=backend, sanitize=1, timeout=20.0
            )
            assert f"{op}#0" in res[0] and _site(op) in res[0]
            return
        other = "allreduce" if op != "allreduce" else "allgather"
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                p, _rank0_diverges, op, other, backend=backend, sanitize=1,
                timeout=20.0,
            )
        # Every member sees the divergence; the first to raise aborts
        # the others, which may then report only the abort.
        flagged = [
            exc
            for exc in exc_info.value.failures.values()
            if isinstance(exc, CollectiveMismatchError)
        ]
        assert flagged, repr(exc_info.value.failures)
        msg = str(flagged[0])
        assert f"{op}#0" in msg and f"{other}#0" in msg, msg
        assert _site(op) in msg and _site(other) in msg, msg


class TestSanitizedCollectiveEntry(_EntryChecks):
    """The same checks with the sanitizer on."""

    sanitize = 1
