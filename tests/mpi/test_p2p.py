"""Point-to-point communication tests for the simulated MPI."""

import numpy as np
import pytest

from repro.mpi import SpmdError
from tests.conftest import spmd


class TestObjectSendRecv:
    def test_ping(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1)
                return None
            return comm.recv(source=0)

        res = spmd(2, prog)
        assert res[1] == {"x": 1}

    def test_tags_demultiplex(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # Receive in reverse tag order.
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return first, second

        assert spmd(2, prog)[1] == ("a", "b")

    def test_message_ordering_same_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(10)]

        assert spmd(2, prog)[1] == list(range(10))

    def test_array_payload_copied(self):
        def prog(comm):
            if comm.rank == 0:
                arr = np.ones(4)
                comm.send(arr, dest=1)
                arr[:] = -1  # must not affect the receiver
                return None
            return comm.recv(source=0)

        np.testing.assert_array_equal(spmd(2, prog)[1], np.ones(4))

    def test_invalid_dest_raises(self):
        def prog(comm):
            comm.send(1, dest=5)

        with pytest.raises(SpmdError, match="dest=5 out of range"):
            spmd(2, prog)


class TestSendrecv:
    def test_ring_shift_no_deadlock(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        res = spmd(4, prog)
        assert res.values == [3, 0, 1, 2]

    def test_self_exchange(self):
        def prog(comm):
            return comm.sendrecv("me", dest=comm.rank, source=comm.rank)

        assert spmd(2, prog).values == ["me", "me"]


class TestNonblocking:
    def test_isendrecv_completes_at_wait_not_post(self):
        # The send leg is staged at post (eager protocol): the peer can
        # match it, and answer, before this rank waits.
        def prog(comm):
            if comm.rank == 0:
                req = comm.isendrecv(np.arange(6.0), dest=1, source=1)
                return req.wait()
            value = comm.recv(source=0)
            comm.send("received", dest=0)
            return value

        res = spmd(2, prog)
        assert res[0] == "received"
        np.testing.assert_array_equal(res[1], np.arange(6.0))

    def test_isendrecv_charge_lands_at_wait(self):
        # An unwaited isendrecv must not have charged the ledger yet; the
        # waited one must charge exactly what a blocking sendrecv does.
        from tests.conftest import spmd_unit

        def prog(comm):
            if comm.rank == 0:
                before = comm.ledger.rank_costs(comm.world_rank).messages
                req = comm.isendrecv(np.arange(8.0), dest=1, source=1)
                posted = comm.ledger.rank_costs(comm.world_rank).messages
                req.wait()
                after = comm.ledger.rank_costs(comm.world_rank).messages
                return before, posted, after
            comm.sendrecv(np.arange(8.0), dest=0, source=0)
            return None

        before, posted, after = spmd_unit(2, prog)[0]
        assert posted == before  # nothing charged at post
        assert after == before + 2  # both legs at completion

    def test_isendrecv_ring_shift(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            req = comm.isendrecv(comm.rank, dest=right, source=left)
            return req.wait()

        res = spmd(4, prog)
        assert res.values == [3, 0, 1, 2]

    def test_isendrecv_matches_blocking_sendrecv(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            payload = np.arange(5.0) + comm.rank
            a = comm.isendrecv(payload, dest=right, source=left, tag=1).wait()
            b = comm.sendrecv(payload, dest=right, source=left, tag=2)
            return np.asarray(a).tobytes(), np.asarray(b).tobytes()

        for a, b in spmd(3, prog):
            assert a == b

    def test_pipelined_ring_all_hops_in_flight(self):
        # The dist_gram pattern: every hop's exchange is posted before
        # the previous hop's wait; per-tag mailboxes keep them matched.
        def prog(comm):
            p = comm.size
            reqs = [
                comm.isendrecv(
                    (comm.rank, i),
                    dest=(comm.rank - i) % p,
                    source=(comm.rank + i) % p,
                    tag=i,
                )
                for i in range(1, p)
            ]
            return [req.wait() for req in reqs]

        res = spmd(4, prog)
        for rank, hops in enumerate(res.values):
            for i, (src, hop) in enumerate(hops, start=1):
                assert src == (rank + i) % 4 and hop == i

    def test_isendrecv_uneven_sizes(self):
        # The two legs may carry different sizes (the recv leg must be
        # charged from the received payload, like blocking sendrecv).
        from tests.conftest import spmd_unit

        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            payload = np.arange(float(4 * (comm.rank + 1)))
            got = comm.isendrecv(payload, dest=right, source=left).wait()
            return got.size

        res = spmd_unit(3, prog)
        assert res.values == [12, 4, 8]
