"""Backend bit-identity for the pipelined TSQR/SVD path.

The SVD-method driver (``dist_sthosvd(method="svd")``) must produce
bit-identical factors, core, ranks and ledger on the thread and process
backends: only *how* the bytes move may differ, never the data, the fold
bracketing or the charges.
"""

import pytest

from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, run_spmd
from repro.tensor import low_rank_tensor

GRID = (2, 2, 1)
N_RANKS = 4


@pytest.fixture(autouse=True)
def spmd_backend():
    """Override the package-level sweep: these tests pick their backends
    explicitly."""
    return None


def _svd_prog(x):
    def prog(comm):
        g = CartGrid(comm, GRID)
        dt = DistTensor.from_global(g, x)
        t = dist_sthosvd(dt, ranks=(3, 3, 2), method="svd")
        tucker = t.to_tucker()
        return tucker.core, tuple(tucker.factors), t.ranks

    return prog


def _assert_same_bits(a, b):
    assert a[0].tobytes() == b[0].tobytes()  # core
    for fa, fb in zip(a[1], b[1]):
        assert fa.tobytes() == fb.tobytes()
    assert a[2] == b[2]  # selected ranks


class TestSvdPathBitIdentity:
    def test_backends_bit_identical(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=24, noise=0.02)
        prog = _svd_prog(x)
        by_backend = {
            name: run_spmd(N_RANKS, prog, backend=name)
            for name in ("thread", "process")
        }
        for t_val, p_val in zip(
            by_backend["thread"].values, by_backend["process"].values
        ):
            _assert_same_bits(t_val, p_val)
        thread = by_backend["thread"].ledger
        process = by_backend["process"].ledger
        assert thread.summary() == process.summary()
        for rank in range(N_RANKS):
            a, b = thread.rank_costs(rank), process.rank_costs(rank)
            assert (a.time, a.words_sent, a.messages, a.flops) == (
                b.time, b.words_sent, b.messages, b.flops
            )
