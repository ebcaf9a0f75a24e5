"""Shared-memory fast path: rank pool, segment arena, zero-copy, windows.

Everything here targets the process backend explicitly (the thread backend
has no shared-memory machinery), so the package-level backend sweep is
shadowed out.  Rank functions that should ride the warm pool are defined
at module scope — the pool pickles them by reference; closures exercise
the fork fallback.  The window-off path is reached the way a weakly
ordered host reaches it: ``WINDOWS_ENABLED`` patched off before the pool
is spawned.
"""

import os
import platform

import numpy as np
import pytest

from repro import resources
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


def _boom(comm):
    raise RuntimeError(f"boom from rank {comm.rank}")


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

    def test_failure_flags_pool_for_recycle(self):
        warm = run_spmd(2, _pid, backend="process").values
        with pytest.raises(SpmdError, match="boom"):
            run_spmd(2, _boom, backend="process")
        # A failed run no longer retires the pool: it is flagged for a
        # surgical recycle (drain + health check) before its next use.
        assert 2 in _POOLS and _POOLS[2].needs_recycle
        recycled = run_spmd(2, _pid, backend="process").values
        # No worker died, so the same warm workers serve the next run.
        assert set(recycled) == set(warm)

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
        # warm workers; the run must fall back to fork-per-run (which
        # inherits the definition), not raise.
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
        # The fork-mode sender tears down its arena on exit; the
        # receiver's view must keep the segment alive regardless.
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

    def test_budget_denied_arena_leaves_no_segment(self):
        # A shm budget too small for one bucket denies the arena before
        # anything reaches /dev/shm; the payload stays in the pickle
        # stream and the fallback is recorded.
        gov = resources.governor()
        gov.configure(budget=1024)
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
        monkeypatch.setattr(pt, "_ARENA_MAX_FREE_BYTES", 8192)
        arena = SegmentArena()
        kept = [arena.acquire(4096), arena.acquire(4096)]
        over = arena.acquire(4096)
        for s in kept:
            arena.recycle(s)  # fills the 8 KiB budget
        name = over.name
        arena.recycle(over)  # over budget: unlinked, not pooled
        assert not os.path.exists(f"/dev/shm/{name}")
        arena.teardown()

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


def _windows_enabled_prog(comm):
    return comm._transport.windows_enabled


def _window_rounds(comm):
    """Run all nine collectives once; report the window round counters."""
    comm.barrier()
    comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
    comm.gather(comm.rank, root=0)
    comm.allgather(comm.rank)
    comm.reduce(float(comm.rank), SUM, root=0)
    comm.allreduce(float(comm.rank), SUM)
    comm.reduce_scatter_block(np.arange(float(2 * comm.size)), SUM)
    comm.scatter(list(range(comm.size)) if comm.rank == 0 else None, root=0)
    comm.alltoall([comm.rank * 10 + j for j in range(comm.size)])
    # 8 exchanges through the P-slot window (scatter is a root-writes
    # round on it), 1 through the P×P matrix (alltoall only).
    return comm._wins["slots"].seq, comm._wins["pairs"].seq


def _window_slots(comm):
    comm.allreduce(comm.rank, SUM)  # scalar first exchange
    small = comm._wins["slots"].slot_bytes
    comm.allreduce(np.arange(6000.0), SUM)  # ~48 KiB forces growth
    return small, comm._wins["slots"].slot_bytes


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
        # Uneven slices, small first: the P×P window opens small and must
        # grow when the full-size alltoall rows arrive next.
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


class TestCollectiveWindows:
    def test_the_platform_decides_windows(self, monkeypatch):
        assert pt.WINDOWS_ENABLED == (
            platform.machine().lower() in pt._TSO_MACHINES
        )
        assert run_spmd(2, _windows_enabled_prog, backend="process")[0] == (
            pt.WINDOWS_ENABLED
        )
        # The retired switch is not read.
        shutdown_worker_pools()
        monkeypatch.setenv("REPRO_SPMD_WINDOWS", "0")
        assert run_spmd(2, _windows_enabled_prog, backend="process")[0] == (
            pt.WINDOWS_ENABLED
        )

    @pytest.mark.parametrize("n", [1024, 80_000])  # fits / forces growth
    def test_windowed_results_match_p2p_and_thread(self, monkeypatch, n):
        x = np.random.default_rng(11).standard_normal(n)
        p = 4
        windowed = run_spmd(p, _collective_battery, x, backend="process")
        shutdown_worker_pools()
        monkeypatch.setattr(pt, "WINDOWS_ENABLED", False)
        p2p = run_spmd(p, _collective_battery, x, backend="process")
        threaded = run_spmd(p, _collective_battery, x, backend="thread")
        assert windowed.values == p2p.values == threaded.values
        assert (
            windowed.ledger.summary()
            == p2p.ledger.summary()
            == threaded.ledger.summary()
        )

    def test_all_nine_collectives_ride_the_windows(self):
        assert run_spmd(3, _window_rounds, backend="process").values == [
            (8, 1)
        ] * 3

    def test_first_exchange_sizes_the_window(self):
        # Scalar-only traffic gets a page-sized slot; array traffic gets
        # the bucket covering its first payload — not a fixed 256 KiB.
        small, big = run_spmd(2, _window_slots, backend="process")[0]
        assert small == 4096
        assert big == 65536  # 4096 doubles up to cover ~48 KiB packed

    def test_weak_platform_disables_windows_on_pool_and_fork(
        self, monkeypatch
    ):
        # Patched before the pool is spawned, as a weakly ordered host
        # would have it from import: pooled and forked ranks both see it.
        monkeypatch.setattr(pt, "WINDOWS_ENABLED", False)

        def forked(comm):
            return comm._transport.windows_enabled

        assert not run_spmd(2, _windows_enabled_prog, backend="process")[0]
        assert not run_spmd(2, forked, backend="process")[0]

    def test_window_growth_preserves_fortran_order(self):
        f_big = np.asfortranarray(
            np.random.default_rng(5).standard_normal((300, 300))
        )

        def prog(comm):
            out = comm.bcast(f_big if comm.rank == 0 else None, root=0)
            return (out.flags.f_contiguous, out.tobytes() == f_big.tobytes())

        for f_cont, same in run_spmd(3, prog, backend="process").values:
            assert f_cont and same
