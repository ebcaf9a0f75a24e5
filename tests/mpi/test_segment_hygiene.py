"""Segment hygiene: nothing leaks — segments or pooled workers.

Shared-memory names live in ``/dev/shm`` on Linux, so leak checking is
direct: snapshot the directory, hammer the process backend (healthy runs,
rank failures, deadlock timeouts — through the arena and the zero-copy
views), tear the pools down, and require the
snapshot to match.  Worker hygiene is checked the same way through
``multiprocessing.active_children``.
"""

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.mpi import (
    SUM,
    RankDeadError,
    SpmdError,
    run_spmd,
    shutdown_worker_pools,
)
from tests.conftest import deny_first_arena_allocations

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm"
)


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: everything here is process-backend."""
    return None


def _segments() -> set[str]:
    # psm_: multiprocessing auto-names; rps_: the runtime's explicitly
    # named segments (transport payloads, status boards).
    return {
        n for n in os.listdir("/dev/shm") if n.startswith(("psm_", "rps_"))
    }


def _children() -> int:
    return len(multiprocessing.active_children())


@pytest.fixture(autouse=True)
def clean_slate():
    shutdown_worker_pools()
    gc.collect()
    before_segments = _segments()
    before_children = _children()
    yield
    shutdown_worker_pools()
    gc.collect()
    leaked = _segments() - before_segments
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert _children() == before_children, "leaked worker processes"


def _healthy(comm, x):
    view = comm.sendrecv(
        x, dest=(comm.rank + 1) % comm.size, source=(comm.rank - 1) % comm.size
    )
    total = comm.allreduce(x, SUM)
    gathered = comm.allgather(x[:100])
    block = comm.reduce_scatter_block(
        np.tile(x[: 2 * comm.size, None], (1, 50)), SUM
    )
    return float(view[0] + total[0] + gathered[0][0] + block[0][0])


def _unmatched_sender(comm):
    # Deliberately leaves undelivered messages in flight: the executor
    # must reclaim their segments when the run ends.
    comm.send(np.arange(3000.0), dest=(comm.rank + 1) % comm.size, tag=99)
    return comm.rank


def _crash_mid_collective(comm, x):
    if comm.rank == 1:
        raise RuntimeError("induced failure")
    comm.allgather(x)  # poisoned mid-round for the survivors
    return None


def _deadlock(comm):
    if comm.rank == 0:
        comm.recv(source=1)  # never sent
    return None


class TestSegmentHygiene:
    def test_healthy_runs_leak_nothing(self):
        x = np.random.default_rng(0).standard_normal(4096)
        for _ in range(3):  # pooled, warm after the first
            run_spmd(4, _healthy, x, backend="process")

    def test_unmatched_sends_are_reclaimed(self):
        for _ in range(2):
            res = run_spmd(3, _unmatched_sender, backend="process")
            assert res.values == [0, 1, 2]

    def test_rank_failure_leaks_nothing(self):
        x = np.random.default_rng(1).standard_normal(50_000)
        with pytest.raises(SpmdError, match="induced failure"):
            run_spmd(3, _crash_mid_collective, x, backend="process")

    def test_one_shot_failure_leaks_nothing(self):
        big = np.random.default_rng(2).standard_normal(50_000)

        def prog(comm):  # closure: runs on a one-shot pool
            if comm.rank == 0:
                raise ValueError("one-shot failure")
            comm.bcast(big, root=1)

        with pytest.raises(SpmdError, match="one-shot failure"):
            run_spmd(3, prog, backend="process", timeout=10.0)

    def test_deadlock_timeout_leaks_nothing(self):
        with pytest.raises(SpmdError):
            run_spmd(2, _deadlock, backend="process", timeout=0.4)

    def test_sigkill_during_fence_leaks_nothing(self):
        # A rank SIGKILLed at the fence of a collective round (its first
        # receive of the allreduce; the first is the ring's sendrecv):
        # survivors must fail fast with RankDeadError and the parent must
        # reclaim the dead rank's segments.
        from repro.config import RuntimeConfig

        x = np.random.default_rng(3).standard_normal(4096)
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                4,
                _healthy,
                x,
                backend="process",
                faults="rank=1:site=recv:nth=2:kind=crash",
                config=RuntimeConfig(),  # no fault spec from the env
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        # The pool must come back clean for the next run.
        res = run_spmd(4, _healthy, x, backend="process")
        assert np.isfinite(res.values[0])

    def test_sigkill_during_arena_send_leaks_nothing(self):
        # A rank SIGKILLed mid-send, after staging its payload in the
        # arena: the staged segment belongs to the dead process and must
        # be swept by the crash audit, not orphaned.
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                3,
                _unmatched_sender,
                backend="process",
                faults="rank=2:site=send:kind=crash",
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        res = run_spmd(3, _unmatched_sender, backend="process")
        assert res.values == [0, 1, 2]

    def test_exhausted_arena_run_leaks_nothing(self):
        # Every rank's first arena allocations fail with ENOSPC, as on a
        # full /dev/shm: the run degrades to the pickle path and still
        # must leave /dev/shm exactly as it found it.
        x = np.random.default_rng(4).standard_normal(4096)
        res = run_spmd(
            4,
            _healthy,
            x,
            backend="process",
            faults=deny_first_arena_allocations(4),
        )
        assert res.resources is not None and res.resources.degraded

    def test_sigkill_mid_degradation_leaks_nothing(self):
        # A rank dies while the world is running degraded (its first
        # arena allocations refused): the crash audit must sweep
        # whatever the denied-then-degraded allocation path did manage
        # to create.
        x = np.random.default_rng(5).standard_normal(4096)
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                4,
                _healthy,
                x,
                backend="process",
                faults=deny_first_arena_allocations(2)
                + ";rank=1:site=allreduce:kind=crash",
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        res = run_spmd(4, _healthy, x, backend="process")
        assert np.isfinite(res.values[0])

    def test_deadline_abort_leaks_nothing(self):
        # Deadline blown mid-collective on every rank: teardown still
        # reclaims staged segments.
        x = np.random.default_rng(6).standard_normal(4096)
        with pytest.raises(SpmdError):
            run_spmd(
                4,
                _healthy,
                x,
                backend="process",
                faults="rank=1:site=allreduce:kind=stall",
                deadline=1.0,
            )

    def test_pool_teardown_reaps_workers(self):
        run_spmd(2, _unmatched_sender, backend="process")
        assert _children() >= 2  # warm workers alive
        shutdown_worker_pools()
        assert _children() == 0
