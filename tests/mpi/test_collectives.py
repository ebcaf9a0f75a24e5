"""Collective-operation tests against local references."""

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, SUM, CommunicatorError, SpmdError
from tests.conftest import spmd


class TestBcast:
    def test_scalar(self):
        def prog(comm):
            value = "payload" if comm.rank == 0 else None
            return comm.bcast(value, root=0)

        assert spmd(4, prog).values == ["payload"] * 4

    def test_nonzero_root(self):
        def prog(comm):
            value = comm.rank if comm.rank == 2 else None
            return comm.bcast(value, root=2)

        assert spmd(4, prog).values == [2] * 4

    def test_array_not_aliased(self):
        def prog(comm):
            arr = np.zeros(3) if comm.rank == 0 else None
            out = comm.bcast(arr, root=0)
            out += comm.rank  # mutating my copy must not affect others
            return out

        res = spmd(3, prog)
        for rank, arr in enumerate(res.values):
            np.testing.assert_array_equal(arr, np.full(3, float(rank)))

    def test_single_rank(self):
        def prog(comm):
            return comm.bcast(7)

        assert spmd(1, prog).values == [7]


class TestGatherScatter:
    def test_gather_to_root(self):
        def prog(comm):
            return comm.gather(comm.rank**2, root=0)

        res = spmd(4, prog)
        assert res[0] == [0, 1, 4, 9]
        assert res[1] is None

    def test_gather_nonzero_root(self):
        def prog(comm):
            return comm.gather(comm.rank, root=3)

        res = spmd(4, prog)
        assert res[3] == [0, 1, 2, 3]

    def test_scatter(self):
        def prog(comm):
            values = [i * 10 for i in range(comm.size)] if comm.rank == 1 else None
            return comm.scatter(values, root=1)

        assert spmd(3, prog).values == [0, 10, 20]

    def test_scatter_wrong_length(self):
        def prog(comm):
            values = [1] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        with pytest.raises(SpmdError):
            spmd(2, prog)

    def test_allgather(self):
        def prog(comm):
            return comm.allgather(comm.rank + 1)

        res = spmd(5, prog)
        for values in res:
            assert values == [1, 2, 3, 4, 5]

    def test_allgather_arrays_independent(self):
        def prog(comm):
            out = comm.allgather(np.array([float(comm.rank)]))
            out[0] += 100.0  # mutate my copy
            return out[0][0]

        # Every rank mutated only its own copy of rank 0's entry.
        assert spmd(3, prog).values == [100.0, 100.0, 100.0]


class TestReductions:
    def test_allreduce_sum_scalar(self):
        def prog(comm):
            return comm.allreduce(comm.rank + 1, SUM)

        assert spmd(4, prog).values == [10] * 4

    def test_allreduce_array(self):
        def prog(comm):
            return comm.allreduce(np.full(3, float(comm.rank)), SUM)

        res = spmd(3, prog)
        for arr in res:
            np.testing.assert_array_equal(arr, np.full(3, 3.0))

    def test_reduce_max_min_prod(self):
        def prog(comm):
            return (
                comm.reduce(comm.rank, MAX, root=0),
                comm.reduce(comm.rank + 1, MIN, root=0),
                comm.reduce(comm.rank + 1, PROD, root=0),
            )

        res = spmd(4, prog)
        assert res[0] == (3, 1, 24)
        assert res[2] == (None, None, None)

    def test_reduce_deterministic_order(self):
        # Folding in rank order must be bitwise reproducible.
        def prog(comm):
            contribution = np.array([0.1 * (comm.rank + 1) ** 3])
            return comm.allreduce(contribution, SUM)[0]

        first = spmd(5, prog).values
        second = spmd(5, prog).values
        assert first == second

    def test_reduce_scatter_block(self):
        def prog(comm):
            arr = np.arange(8, dtype=np.float64) + comm.rank
            block = comm.reduce_scatter_block(arr, SUM)
            return block

        res = spmd(4, prog)
        total = sum(np.arange(8.0) + r for r in range(4))
        for rank, block in enumerate(res):
            np.testing.assert_array_equal(block, total[rank * 2 : rank * 2 + 2])

    def test_reduce_scatter_requires_divisibility(self):
        def prog(comm):
            return comm.reduce_scatter_block(np.zeros(5), SUM)

        with pytest.raises(SpmdError):
            spmd(2, prog)

    def test_reduce_scatter_rejects_non_array(self):
        def prog(comm):
            return comm.reduce_scatter_block([1, 2], SUM)

        with pytest.raises(SpmdError):
            spmd(2, prog)


class TestAlltoall:
    def test_exchange(self):
        def prog(comm):
            values = [f"{comm.rank}->{j}" for j in range(comm.size)]
            return comm.alltoall(values)

        res = spmd(3, prog)
        for j, received in enumerate(res):
            assert received == [f"{i}->{j}" for i in range(3)]

    def test_wrong_length(self):
        def prog(comm):
            return comm.alltoall([0])

        with pytest.raises(SpmdError):
            spmd(3, prog)


class TestBarrier:
    def test_barrier_completes(self):
        def prog(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert all(spmd(4, prog).values)


class TestSplitAndDup:
    def test_split_even_odd(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            total = sub.allreduce(comm.rank, SUM)
            return sub.size, total

        res = spmd(6, prog)
        for rank, (size, total) in enumerate(res):
            assert size == 3
            assert total == (0 + 2 + 4 if rank % 2 == 0 else 1 + 3 + 5)

    def test_split_with_key_reorders(self):
        def prog(comm):
            # Reverse rank order within the new communicator.
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        res = spmd(4, prog)
        assert res.values == [3, 2, 1, 0]

    def test_split_undefined_color(self):
        def prog(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            if sub is None:
                return "excluded"
            return sub.size

        res = spmd(3, prog)
        assert res[0] == "excluded"
        assert res[1] == res[2] == 2

    def test_dup_isolates_tag_space(self):
        def prog(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.send("world", dest=1, tag=0)
                dup.send("dup", dest=1, tag=0)
                return None
            # Receive from the dup first: messages must not cross.
            from_dup = dup.recv(source=0, tag=0)
            from_world = comm.recv(source=0, tag=0)
            return from_dup, from_world

        assert spmd(2, prog)[1] == ("dup", "world")

    def test_nested_split(self):
        def prog(comm):
            half = comm.split(color=comm.rank // 2)
            pair_sum = half.allreduce(comm.rank, SUM)
            return half.size, pair_sum

        res = spmd(4, prog)
        assert res.values == [(2, 1), (2, 1), (2, 5), (2, 5)]


class TestNonblockingCollectives:
    """ireduce / iallreduce / ireduce_scatter_block: deferred completion
    with bit-identical results and charges to the blocking ops."""

    def test_ireduce_matches_reduce_bitwise(self):
        def prog(comm):
            value = np.arange(6.0) * (comm.rank + 1)
            nb = comm.ireduce(value, SUM, root=1).wait()
            blocking = comm.reduce(value, SUM, root=1)
            if comm.rank == 1:
                return nb.tobytes(), blocking.tobytes()
            return nb, blocking  # both None off-root

        for nb, blocking in spmd(4, prog):
            assert nb == blocking

    def test_iallreduce_matches_allreduce_bitwise(self):
        def prog(comm):
            value = np.arange(8.0) + comm.rank
            nb = comm.iallreduce(value, SUM).wait()
            blocking = comm.allreduce(value, SUM)
            return nb.tobytes() == blocking.tobytes()

        assert all(spmd(4, prog).values)

    def test_ireduce_scatter_block_matches_blocking(self):
        def prog(comm):
            arr = np.outer(np.arange(float(2 * comm.size)), np.arange(5.0))
            arr = arr + comm.rank
            nb = comm.ireduce_scatter_block(arr, SUM).wait()
            blocking = comm.reduce_scatter_block(arr, SUM)
            return nb.tobytes() == blocking.tobytes()

        assert all(spmd(3, prog).values)

    def test_other_ops_and_roots(self):
        def prog(comm):
            out = []
            for op in (MAX, MIN, PROD):
                got = comm.iallreduce(float(comm.rank + 1), op).wait()
                out.append(got)
            for root in range(comm.size):
                r = comm.ireduce(comm.rank, SUM, root=root).wait()
                out.append(r)
            return out

        p = 3
        for rank, got in enumerate(spmd(p, prog)):
            assert got[:3] == [3.0, 1.0, 6.0]
            expected = [3 if root == rank else None for root in range(p)]
            assert got[3:] == expected

    def test_five_pipelined_posts(self):
        # Five requests outstanding at once complete in order, and
        # user-side waits stay idempotent (cached values).  The repeat-wait check only runs
        # unsanitized: under REPRO_SANITIZE a second user wait is a
        # RequestStateError by design.
        def prog(comm):
            reqs = [
                comm.ireduce(np.full(4, float(comm.rank + i)), SUM, root=0)
                for i in range(5)
            ]
            values = [req.wait() for req in reqs]
            if comm.sanitizer is None:
                again = [req.wait() for req in reqs]  # cached
                assert all(
                    (a is b) or np.array_equal(a, b)
                    for a, b in zip(values, again)
                )
            if comm.rank == 0:
                return [v[0] for v in values]
            return values

        p = 4
        res = spmd(p, prog)
        base = sum(range(p)) * 1.0
        assert res[0] == [base + p * i for i in range(5)]
        assert res[1] == [None] * 5

    def test_payload_size_changes_mid_pipeline(self):
        # Small, large, then small again on one communicator.
        def prog(comm):
            small = comm.iallreduce(np.arange(4.0)).wait()
            big = comm.iallreduce(np.full(60_000, float(comm.rank))).wait()
            small2 = comm.iallreduce(np.arange(3.0) * comm.rank).wait()
            return small.tobytes(), float(big[0]), small2.tobytes()

        p = 4
        res = spmd(p, prog)
        expected_big = float(sum(range(p)))
        assert all(v[1] == expected_big for v in res.values)
        assert len({v[0] for v in res.values}) == 1
        assert len({v[2] for v in res.values}) == 1

    def test_interleaved_with_blocking_collectives(self):
        # A non-blocking request may stay outstanding across unrelated
        # blocking collectives; SPMD ordering keeps everything matched.
        def prog(comm):
            req = comm.ireduce(np.full(5, float(comm.rank)), SUM, root=2)
            token = comm.bcast("mid" if comm.rank == 0 else None, root=0)
            gathered = comm.allgather(comm.rank)
            reduced = req.wait()
            comm.barrier()
            return token, gathered, None if reduced is None else reduced[0]

        p = 4
        res = spmd(p, prog)
        for rank, (token, gathered, reduced) in enumerate(res.values):
            assert token == "mid" and gathered == list(range(p))
            assert reduced == (float(sum(range(p))) if rank == 2 else None)

    def test_single_rank(self):
        def prog(comm):
            a = comm.ireduce(np.arange(3.0), SUM).wait()
            b = comm.iallreduce(np.arange(2.0), SUM).wait()
            c = comm.ireduce_scatter_block(np.arange(4.0).reshape(2, 2), SUM)
            return a.tolist(), b.tolist(), c.wait().tolist()

        a, b, c = spmd(1, prog)[0]
        assert a == [0.0, 1.0, 2.0]
        assert b == [0.0, 1.0]
        assert c == [[0.0, 1.0], [2.0, 3.0]]

    def test_ireduce_invalid_root(self):
        def prog(comm):
            comm.ireduce(1.0, SUM, root=9)

        with pytest.raises(SpmdError, match="root=9 out of range"):
            spmd(2, prog)

    def test_ireduce_scatter_block_validates_at_post(self):
        def prog(comm):
            comm.ireduce_scatter_block(np.arange(5.0), SUM)

        with pytest.raises(SpmdError, match="not divisible"):
            spmd(2, prog)

    def test_sub_communicator_nonblocking(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            got = sub.iallreduce(np.full(3, float(comm.rank))).wait()
            return got[0]

        res = spmd(4, prog)
        assert res.values == [2.0, 4.0, 2.0, 4.0]
