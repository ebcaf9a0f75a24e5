"""Shared-memory fast path: rank pool, segment arena, zero-copy receives.

Everything here targets the process backend explicitly (the thread backend
has no shared-memory machinery), so the package-level backend sweep is
shadowed out.  Rank functions that should ride the warm pool are defined
at module scope — the pool pickles them by reference; closures exercise
the one-shot pool.
"""

import os
import signal

import numpy as np
import pytest

from repro import resources
from repro.faults import FaultInjector, FaultSpec
from repro.mpi import (
    SpmdError,
    SUM,
    run_spmd,
    shutdown_worker_pools,
)
from repro.mpi import process_transport as pt
from repro.mpi.backends import _POOLS
from repro.mpi.process_transport import (
    SegmentArena,
    ShmArrayView,
    _bucket_of,
    encode_payload,
)


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: every test names its backend."""
    return None


@pytest.fixture(autouse=True)
def fresh_pools():
    """Isolate each test's warm workers (and leave none behind)."""
    shutdown_worker_pools()
    yield
    shutdown_worker_pools()


def _pid(comm):
    return os.getpid()


def _gather_big(comm, x):
    gathered = comm.allgather(x)
    return float(gathered[(comm.rank + 1) % comm.size][0])


def _recv_properties(comm):
    if comm.rank == 0:
        comm.send(np.arange(4096.0), dest=1)
        return None
    arr = comm.recv(source=0)
    return (
        type(arr).__name__,
        bool(arr.flags.writeable),
        float(arr[17]),
        arr.copy().flags.writeable,
    )


def _swap_ranks(comm):
    peer = 1 - comm.rank
    return comm.sendrecv(comm.rank, dest=peer, source=peer)


def _boom(comm):
    raise RuntimeError(f"boom from rank {comm.rank}")


def _shm_names() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith(("psm_", "rps_"))}


class TestRankPool:
    def test_workers_are_reused_across_runs(self):
        first = run_spmd(2, _pid, backend="process").values
        second = run_spmd(2, _pid, backend="process").values
        assert first == second
        assert os.getpid() not in first

    def test_pools_keyed_by_world_size(self):
        two = run_spmd(2, _pid, backend="process").values
        three = run_spmd(3, _pid, backend="process").values
        assert set(two).isdisjoint(three)
        assert set(_POOLS) == {2, 3}

    def test_closures_fall_back_to_fork(self):
        captured = {"flag": True}

        def prog(comm):  # closure: not picklable by reference
            return (os.getpid(), captured["flag"])

        warm = run_spmd(2, _pid, backend="process").values
        first = run_spmd(2, prog, backend="process").values
        second = run_spmd(2, prog, backend="process").values
        assert all(flag for _, flag in first)
        # Fresh forks each run: no warm pids survive, and the pool's
        # workers serve none of them.
        forked = {pid for pid, _ in first}
        assert forked.isdisjoint(pid for pid, _ in second)
        assert forked.isdisjoint(warm)

    def test_retired_pool_env_var_keeps_the_pool(self, monkeypatch):
        # REPRO_SPMD_POOL is no longer read: a picklable function rides
        # the warm pool whatever the environment says.
        monkeypatch.setenv("REPRO_SPMD_POOL", "0")
        first = run_spmd(2, _pid, backend="process").values
        second = run_spmd(2, _pid, backend="process").values
        assert first == second
        assert set(_POOLS) == {2}

    def test_closure_run_leaves_the_warm_pool_alone(self):
        import multiprocessing

        def prog(comm):  # closure: runs on a one-shot pool
            return os.getpid()

        warm = run_spmd(2, _pid, backend="process").values
        pool = _POOLS[2]
        children = {p.pid for p in multiprocessing.active_children()}
        one_shot = run_spmd(2, prog, backend="process").values
        assert set(one_shot).isdisjoint(warm)
        # The one-shot workers are gone, and the warm pool is the same
        # object with the same workers.
        assert {p.pid for p in multiprocessing.active_children()} == children
        assert _POOLS[2] is pool
        assert run_spmd(2, _pid, backend="process").values == warm

    def test_closure_first_at_a_size_forks_no_warm_pool(self):
        import multiprocessing

        def prog(comm):  # closure: runs on a one-shot pool
            return os.getpid()

        assert 2 not in _POOLS
        one_shot = run_spmd(2, prog, backend="process").values
        assert os.getpid() not in one_shot
        assert 2 not in _POOLS
        assert not multiprocessing.active_children()

    def test_failed_run_retires_the_pool(self):
        before = _shm_names()
        warm = run_spmd(2, _pid, backend="process").values
        with pytest.raises(SpmdError, match="boom"):
            run_spmd(2, _boom, backend="process")
        # The failed run shut its pool down and swept its segments.
        assert 2 not in _POOLS
        assert _shm_names() <= before
        fresh = run_spmd(2, _pid, backend="process").values
        assert set(fresh).isdisjoint(warm)
        shutdown_worker_pools()
        assert _shm_names() <= before

    def test_inbox_left_locked_by_a_dead_worker_replaces_the_pool(self):
        run_spmd(2, _pid, backend="process")
        pool = _POOLS[2]
        # As if rank 1 died while its queue feeder held rank 0's inbox
        # write lock: no later message to rank 0 would be delivered.
        lock = pool.inboxes[0]._wlock
        lock.acquire()
        try:
            os.kill(pool.procs[1].pid, signal.SIGKILL)
            pool.procs[1].join(timeout=10.0)
            assert not pool.procs[1].is_alive()
            res = run_spmd(2, _swap_ranks, backend="process", timeout=10.0)
        finally:
            lock.release()
        assert res.values == [1, 0]
        assert _POOLS[2] is not pool

    def test_pooled_runs_with_array_args(self):
        x = np.random.default_rng(3).standard_normal(2048)
        res1 = run_spmd(2, _gather_big, x, backend="process")
        res2 = run_spmd(2, _gather_big, x, backend="process")
        assert res1.values == res2.values == [x[0], x[0]]

    def test_shutdown_is_idempotent(self):
        run_spmd(2, _pid, backend="process")
        shutdown_worker_pools()
        shutdown_worker_pools()
        assert not _POOLS

    def test_function_defined_after_fork_falls_back(self):
        import sys

        run_spmd(2, _pid, backend="process")  # warm the pool
        # A function installed at module scope *after* the workers forked
        # pickles by reference in the parent but cannot resolve in the
        # warm workers; the run must go to a one-shot pool (which
        # inherits the definition through fork), not raise.
        mod = sys.modules[_pid.__module__]

        def late(comm):
            return ("late", os.getpid())

        late.__module__ = mod.__name__
        late.__qualname__ = "late_defined_fn"
        mod.late_defined_fn = late
        try:
            res = run_spmd(2, late, backend="process")
        finally:
            del mod.late_defined_fn
        assert [v[0] for v in res.values] == ["late", "late"]
        assert os.getpid() not in [v[1] for v in res.values]
        assert 2 not in _POOLS  # the stale pool was retired


class TestZeroCopyReceive:
    def test_large_recv_is_a_readonly_shm_view(self):
        got = run_spmd(2, _recv_properties, backend="process")[1]
        name, writeable, val, copy_writeable = got
        assert name == "ShmArrayView"
        assert not writeable  # the segment may be reused once released
        assert val == 17.0
        assert copy_writeable  # an explicit copy is private and mutable

    def test_thread_backend_recv_stays_plain(self):
        got = run_spmd(2, _recv_properties, backend="thread")[1]
        assert got[0] == "ndarray"
        assert got[1]  # writable private copy

    def test_view_data_survives_sender_exit(self):
        # The sender's rank function returns before the receiver reads;
        # the receiver's view must keep the segment alive regardless.
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.full(1000, 7.0), dest=1)
                comm.barrier()
                return None
            arr = comm.recv(source=0)
            comm.barrier()  # sender finishes (and cleans up) before we read
            return float(arr.sum())

        assert run_spmd(2, prog, backend="process", timeout=20.0)[1] == 7000.0


class TestSegmentArena:
    def test_bucket_rounding(self):
        assert _bucket_of(1) == 4096
        assert _bucket_of(4096) == 4096
        assert _bucket_of(4097) == 8192
        assert _bucket_of(1 << 20) == 1 << 20

    def test_acquire_reuses_recycled_segment(self):
        arena = SegmentArena()
        shm = arena.acquire(1000)
        name = shm.name
        arena.recycle(shm)
        again = arena.acquire(2000)  # same 4 KiB bucket
        try:
            assert again.name == name
            assert arena.created == 1 and arena.reused == 1
        finally:
            arena.recycle(again)
            arena.teardown()

    def test_enospc_denied_arena_leaves_no_segment(self):
        # An ENOSPC at the arena's fault gate denies the allocation
        # before anything reaches /dev/shm; the payload stays in the
        # pickle stream and the fallback is recorded.
        gov = resources.governor()
        spec = FaultSpec.parse("rank=0:site=arena:kind=enospc")
        gov.configure(faults=FaultInjector(spec, 0))
        arena = SegmentArena()
        before = set(os.listdir("/dev/shm"))
        try:
            x = np.arange(1000.0)
            segments: list = []
            assert encode_payload(x, segments, arena) is x
            assert not segments
            assert set(os.listdir("/dev/shm")) == before
        finally:
            summary = gov.deconfigure()
            arena.teardown()
        assert [e[:2] for e in summary["events"]] == [("arena", "pickle")]

    def test_recycle_respects_byte_budget(self, monkeypatch):
        monkeypatch.setattr(pt, "_ARENA_MAX_FREE_BYTES", 12288)
        arena = SegmentArena()
        kept = [arena.acquire(4096), arena.acquire(8192)]
        over = arena.acquire(4096)
        for s in kept:
            arena.recycle(s)  # fills the 12 KiB budget
        name = over.name
        arena.recycle(over)  # its bucket has room, the budget has not
        assert not os.path.exists(f"/dev/shm/{name}")
        arena.teardown()

    def test_recycle_caps_each_bucket(self):
        arena = SegmentArena()
        segs = [arena.acquire(4096) for _ in range(pt._BUCKET_MAX_FREE + 1)]
        for s in segs:
            arena.recycle(s)
        assert arena._free_bytes == pt._BUCKET_MAX_FREE * 4096
        assert not os.path.exists(f"/dev/shm/{segs[-1].name}")
        arena.teardown()

    def test_receive_only_root_keeps_at_most_the_bucket_cap(self):
        # Rank 1 sends a fresh 4 MiB segment to the gather's root on every
        # run and never gets one back; the root adopts each but pools at
        # most the per-bucket cap.
        n = (4 << 20) // 8
        frees = [
            run_spmd(2, _one_way_gather, n, backend="process")[0]
            for _ in range(6)
        ]
        bound = pt._BUCKET_MAX_FREE * _bucket_of(8 * n)
        assert frees[-1] == bound
        assert max(frees) <= bound

    def test_teardown_unlinks_pooled_segments(self):
        arena = SegmentArena()
        names = []
        segs = [arena.acquire(n) for n in (100, 5000, 100)]
        for s in segs:
            names.append(s.name)
            arena.recycle(s)
        arena.teardown()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")


def _one_way_gather(comm, n):
    """Gather ``n`` float64s from rank 1 at rank 0; report rank 0's arena
    free-list bytes (rank 0 only receives)."""
    comm.gather(np.ones(n), root=0)
    return pt.process_arena()._free_bytes


def _collective_battery(comm, x):
    comm.barrier()
    total = comm.allreduce(x, SUM)
    gathered = comm.allgather(x * (comm.rank + 1))
    seen = comm.bcast({"arr": x, "tag": comm.rank} if comm.rank == 1 else None,
                      root=1)
    block = comm.reduce_scatter_block(
        np.outer(np.arange(float(2 * comm.size)), x[:5]) + comm.rank, SUM
    )
    at_root = comm.gather(x * (comm.rank + 2), root=1)
    folded = comm.reduce(x + comm.rank, SUM, root=2)
    mine = comm.scatter(
        # Uneven slices, small first, then the full-size alltoall rows.
        [x[: n + 3] * n for n in range(comm.size)] if comm.rank == 0 else None,
        root=0,
    )
    swapped = comm.alltoall(
        [x * (j + 1) + comm.rank for j in range(comm.size)]
    )
    sub = comm.split(color=comm.rank % 2)
    sub_total = sub.allreduce(float(comm.rank))
    return (
        total.tobytes(),
        [g.tobytes() for g in gathered],
        seen["arr"].tobytes(),
        seen["tag"],
        block.tobytes(),
        None if at_root is None else [g.tobytes() for g in at_root],
        None if folded is None else folded.tobytes(),
        mine.tobytes(),
        [s.tobytes() for s in swapped],
        sub_total,
    )


class TestCollectiveRounds:
    @pytest.mark.parametrize("n", [1024, 80_000])
    def test_results_and_ledgers_match_thread(self, n):
        x = np.random.default_rng(11).standard_normal(n)
        p = 4
        process = run_spmd(p, _collective_battery, x, backend="process")
        threaded = run_spmd(p, _collective_battery, x, backend="thread")
        assert process.values == threaded.values
        assert process.ledger.summary() == threaded.ledger.summary()

    def test_large_bcast_preserves_fortran_order(self):
        f_big = np.asfortranarray(
            np.random.default_rng(5).standard_normal((300, 300))
        )

        def prog(comm):
            out = comm.bcast(f_big if comm.rank == 0 else None, root=0)
            return (out.flags.f_contiguous, out.tobytes() == f_big.tobytes())

        for f_cont, same in run_spmd(3, prog, backend="process").values:
            assert f_cont and same
