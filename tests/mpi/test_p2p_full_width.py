"""Point-to-point payloads travel at full width and arrive bit-exact.

The Gram and TSQR ring hops (``sendrecv`` / ``isendrecv``) move every
payload in its own dtype: the receiver gets the sender's bytes, and the
ledger charges ``ceil(nbytes / 8)`` words per leg.  A float64 payload is
never narrowed on the wire; a narrower dtype is charged at its own width.
"""

import numpy as np
import pytest

from repro.mpi import SUM
from tests.conftest import spmd_unit

DTYPES = ["float64", "float32", "int64", "complex128"]


def _payload(rank, dtype):
    base = np.pi * (np.arange(8.0) + 1.0) + rank
    if np.dtype(dtype).kind == "c":
        return (base + 1j * base[::-1]).astype(dtype)
    return base.astype(dtype)


def _ring(comm, dtype, op):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    payload = _payload(comm.rank, dtype)
    if op == "sendrecv":
        received = comm.sendrecv(payload, dest=right, source=left)
    else:
        received = comm.isendrecv(payload, dest=right, source=left).wait()
    return str(received.dtype), received.tobytes()


def _allreduce_f64(comm):
    total = comm.allreduce(np.pi * (np.arange(5.0) + comm.rank), SUM)
    return total.tobytes()


class TestRoundTrip:
    @pytest.mark.parametrize("op", ["sendrecv", "isendrecv"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_payload_arrives_bit_exact(self, dtype, op):
        res = spmd_unit(4, _ring, dtype, op)
        for rank, (got_dtype, got) in enumerate(res.values):
            assert got_dtype == dtype
            assert got == _payload((rank - 1) % 4, dtype).tobytes()

    def test_collectives_stay_bit_exact(self):
        blobs = spmd_unit(4, _allreduce_f64).values
        assert len(set(blobs)) == 1
        expected = sum(
            np.pi * (np.arange(5.0) + r) for r in range(4)
        ).tobytes()
        assert blobs[0] == expected


class TestCharges:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_both_legs_charged_at_the_payload_width(self, dtype):
        res = spmd_unit(4, _ring, dtype, "sendrecv")
        words = -(-_payload(0, dtype).nbytes // 8)
        for rank in range(4):
            row = res.ledger.rank_costs(rank)
            assert (row.words_sent, row.messages) == (2 * words, 2)
            assert row.time == pytest.approx(2 * (words + 1))
