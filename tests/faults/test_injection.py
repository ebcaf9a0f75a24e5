"""The test-side faults of ``tests/faults/inject.py``, on both backends
(package-wide sweep): each fires in the named rank, at the named site,
on the named hit, and nowhere else."""

import errno
import time

import numpy as np
import pytest

from repro import resources
from repro.mpi import DeadlineExceededError, SpmdError, process_transport
from repro.mpi.transport import TransportBase
from tests.conftest import spmd
from tests.faults import inject
from tests.faults.collectives import OPS, run_op, same
from tests.faults.inject import Fault, Faulty, InjectedFault


def _allreduce_prog(comm):
    total = comm.allreduce(np.full(4, float(comm.rank + 1)))
    return float(total[0])


def _two_collectives(comm):
    comm.barrier()
    return float(comm.allreduce(np.ones(2))[0])


def _allocate_three(comm):
    """Three shared-memory allocations, as the transport makes them:
    ``"ok"`` or the errno name of each."""
    outcomes = []
    for _ in range(3):
        try:
            shm = process_transport.create_segment(4096)
        except OSError as exc:
            assert resources.is_exhaustion(exc)
            outcomes.append(errno.errorcode[exc.errno])
            continue
        shm.close()
        shm.unlink()
        resources.governor().release(shm.size)
        outcomes.append("ok")
    return outcomes


class TestExceptionFaults:
    @pytest.mark.parametrize("op", OPS)
    def test_targets_one_rank_at_one_site(self, op):
        with pytest.raises(SpmdError) as exc_info:
            spmd(3, Faulty(run_op, Fault(op, "raise", 1)), op)
        failures = exc_info.value.failures
        assert set(failures) == {1}
        assert isinstance(failures[1], InjectedFault)
        assert f"site {op!r} (hit #1)" in str(failures[1])

    def test_nth_counts_per_site(self):
        # barrier is hit first; nth=1 on allreduce must skip it and fire
        # on the first allreduce.
        with pytest.raises(SpmdError) as exc_info:
            spmd(2, Faulty(_two_collectives, Fault("allreduce", "raise", 0)))
        assert isinstance(exc_info.value.failures[0], InjectedFault)
        assert "hit #1" in str(exc_info.value.failures[0])

    def test_unmatched_site_never_fires(self):
        res = spmd(2, Faulty(_two_collectives, Fault("gather", "raise", 0)))
        assert res.values == [2.0, 2.0]

    def test_dispatch_site_fires_before_user_code(self):
        with pytest.raises(SpmdError) as exc_info:
            spmd(2, Faulty(_allreduce_prog, Fault("dispatch", "raise", 1)))
        assert isinstance(exc_info.value.failures[1], InjectedFault)


class TestDelayFaults:
    def test_delay_slows_but_completes(self):
        t0 = time.monotonic()
        res = spmd(
            2,
            Faulty(_allreduce_prog, Fault("allreduce", "stall", 0, delay=0.3)),
        )
        elapsed = time.monotonic() - t0
        assert res.values == [3.0, 3.0]
        assert elapsed >= 0.3


class TestResourceFaults:
    """``enospc`` and ``stall`` in one rank's run."""

    def test_enospc_raises_real_errno_at_nth_hit(self):
        res = spmd(1, Faulty(_allocate_three, Fault("arena", "enospc", nth=2)))
        assert res.values == [["ok", "ENOSPC", "ok"]]

    def test_enospc_respects_rank_and_site(self):
        res = spmd(2, Faulty(_allocate_three, *[
            Fault("arena", "enospc", 1), Fault("send", "enospc", 0),
        ]))
        assert res.values == [["ok", "ok", "ok"], ["ENOSPC", "ok", "ok"]]

    def test_stall_without_deadline_degrades_to_delay(self):
        t0 = time.monotonic()
        spmd(1, Faulty(_allreduce_prog, Fault("dispatch", "stall", 0)))
        assert time.monotonic() - t0 >= 0.05

    def test_stall_with_deadline_raises_deadline_error(self):
        with pytest.raises(SpmdError) as exc_info:
            spmd(
                1, Faulty(_allreduce_prog, Fault("dispatch", "stall", 0)),
                deadline=0.1,
            )
        failure = exc_info.value.failures[0]
        assert isinstance(failure, DeadlineExceededError)
        assert "injected stall" in str(failure)


class TestEveryCollective:
    @pytest.mark.parametrize("op", OPS)
    def test_stall_at_entry_trips_the_deadline_on_every_rank(self, op):
        with pytest.raises(SpmdError) as exc_info:
            spmd(2, Faulty(run_op, Fault(op, "stall", 0)), op, deadline=0.3)
        failures = exc_info.value.failures
        assert set(failures) == {0, 1}
        for exc in failures.values():
            assert isinstance(exc, DeadlineExceededError)
            assert "deadline of 0.3" in str(exc)
        assert "injected stall" in str(failures[0])

    @pytest.mark.parametrize("op", OPS)
    def test_an_unreached_fault_changes_no_result(self, op):
        plain = spmd(3, run_op, op)
        faulted = spmd(3, Faulty(run_op, Fault(op, "raise", nth=2)), op)
        assert same(faulted.values, plain.values)


def _active_faults(comm):
    """The fault lists installed in this rank's thread or process now."""
    return [f.faults for f in inject._local.ranks]


class TestPatchLifetime:
    """A fault lives for one rank's run: nothing of it is left on the
    warm workers (or in the test process) for the next run."""

    @pytest.mark.parametrize("kind", ["enospc", "stall", "raise"])
    def test_the_next_run_sees_only_its_own_faults(self, kind):
        faulty = Faulty(_allocate_three, Fault("arena", kind, 0))
        try:
            spmd(2, faulty)
        except SpmdError:
            assert kind == "raise"
        own = Fault("gather", "raise")
        assert spmd(2, Faulty(_active_faults, own)).values == [[[own]]] * 2
        patched = vars(TransportBase)["note_collective"]
        assert patched.__qualname__ == "TransportBase.note_collective"
