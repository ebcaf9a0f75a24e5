"""SPMD executor tests: results, failures, deadlock detection."""

import time

import pytest

from repro.mpi import DeadlockError, SpmdError, run_spmd
from tests.conftest import spmd


class TestResults:
    def test_values_in_rank_order(self):
        res = spmd(5, lambda comm: comm.rank * 2)
        assert res.values == [0, 2, 4, 6, 8]

    def test_iteration_and_indexing(self):
        res = spmd(3, lambda comm: comm.rank)
        assert list(res) == [0, 1, 2]
        assert res[2] == 2

    def test_shared_args(self):
        res = spmd(2, lambda comm, x, y: x + y + comm.rank, 10, 20)
        assert res.values == [30, 31]

    def test_rank_args(self):
        res = run_spmd(
            3,
            lambda comm, shared, mine: (shared, mine),
            "s",
            rank_args=[("a",), ("b",), ("c",)],
        )
        assert res.values == [("s", "a"), ("s", "b"), ("s", "c")]

    def test_rank_args_length_checked(self):
        with pytest.raises(ValueError, match="rank_args"):
            run_spmd(3, lambda comm: None, rank_args=[()])

    def test_nonpositive_ranks_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_single_rank(self):
        assert spmd(1, lambda comm: comm.size).values == [1]


class TestFailurePropagation:
    def test_one_rank_raises(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 broke")
            return "ok"

        with pytest.raises(SpmdError, match="rank 1 broke") as exc_info:
            spmd(3, prog)
        assert set(exc_info.value.failures) == {1}

    def test_blocked_peers_fail_fast_not_reported(self):
        # Rank 0 dies; rank 1 is blocked receiving from it.  The SpmdError
        # must surface rank 0's original exception, not rank 1's induced
        # deadlock.
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("original failure")
            comm.recv(source=0)

        with pytest.raises(SpmdError, match="original failure") as exc_info:
            spmd(2, prog)
        assert 0 in exc_info.value.failures
        assert 1 not in exc_info.value.failures

    def test_all_ranks_fail(self):
        def prog(comm):
            raise KeyError(f"rank{comm.rank}")

        with pytest.raises(SpmdError) as exc_info:
            spmd(3, prog)
        assert set(exc_info.value.failures) == {0, 1, 2}


class TestDeadlockDetection:
    def test_recv_without_send_times_out(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # never sent
            return None

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=0.2)
        assert any(
            isinstance(e, DeadlockError) for e in exc_info.value.failures.values()
        )

    def test_infinite_timeout_waits(self):
        # ``inf`` turns detection off; a rank that has to wait still gets
        # its message.
        def prog(comm):
            if comm.rank == 1:
                time.sleep(0.05)
                comm.send("late", dest=0)
                return None
            return comm.recv(source=1)

        assert run_spmd(2, prog, timeout=float("inf"))[0] == "late"

    def test_mismatched_collective_order(self):
        # Rank 0 calls bcast, rank 1 calls allreduce: sequence numbers match
        # but phases/structure differ; rank 1 blocks and times out.
        def prog(comm):
            if comm.rank == 0:
                return comm.gather(1, root=1)
            return comm.recv(source=0, tag=99)

        with pytest.raises(SpmdError):
            run_spmd(2, prog, timeout=0.2)


class TestLedgerIntegration:
    def test_result_exposes_ledger(self):
        res = spmd(2, lambda comm: comm.allreduce(1.0))
        assert res.ledger.n_ranks == 2
        assert res.modeled_time > 0

    def test_flop_charging(self):
        def prog(comm):
            comm.add_flops(1000)
            return None

        res = spmd(2, prog)
        assert res.ledger.total_flops() == 2000
