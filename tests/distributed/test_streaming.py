"""Distributed streaming compressor tests (repro.distributed.streaming)."""

import numpy as np
import pytest

from repro.core import normalized_rms
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.layout import local_block
from repro.distributed.streaming import DistStreamingTucker
from repro.mpi import CartGrid, SpmdError
from repro.tensor import low_rank_tensor
from repro.util.validation import prod
from tests.conftest import spmd
from tests.reference import st_hosvd


def _stream_distributed(x, grid_dims, tol, chunk):
    """Run the distributed streamer on grid_dims; returns per-rank Tucker."""
    spatial = x.shape[:-1]

    def prog(comm):
        grid = CartGrid(comm, grid_dims)
        streamer = DistStreamingTucker(grid, spatial, tol=tol)
        spatial_slices = local_block(
            spatial, grid_dims[:-1], grid.coords[:-1]
        )
        for t0 in range(0, x.shape[-1], chunk):
            block = x[spatial_slices + (slice(t0, t0 + chunk),)]
            streamer.update(block)
        return streamer.finalize()

    return spmd(prod(grid_dims), prog)


class TestErrorGuarantee:
    @pytest.mark.parametrize("grid_dims", [(1, 1, 1), (2, 2, 1), (2, 3, 1)])
    def test_error_within_tolerance(self, grid_dims):
        x = low_rank_tensor((8, 9, 12), (3, 4, 4), seed=110, noise=0.005)
        res = _stream_distributed(x, grid_dims, tol=0.05, chunk=3)
        for t in res:
            assert t.shape == x.shape
            assert normalized_rms(x, t.reconstruct()) <= 0.05

    def test_identical_on_all_ranks(self):
        x = low_rank_tensor((8, 6, 10), (3, 3, 3), seed=111, noise=0.005)
        res = _stream_distributed(x, (2, 2, 1), tol=0.05, chunk=4)
        for t in res.values[1:]:
            np.testing.assert_allclose(
                t.reconstruct(), res[0].reconstruct(), atol=1e-10
            )

    def test_basis_growth_mid_stream(self):
        # Second half lives in a new subspace: the distributed streamer
        # must expand its bases and still meet the budget.
        first = low_rank_tensor((8, 6, 6), (2, 2, 3), seed=112)
        second = low_rank_tensor((8, 6, 6), (5, 4, 3), seed=113)
        x = np.concatenate([first, second], axis=-1)
        res = _stream_distributed(x, (2, 1, 1), tol=1e-3, chunk=6)
        for t in res:
            assert normalized_rms(x, t.reconstruct()) <= 1e-3

    @pytest.mark.parametrize("grid_dims", [(1, 1, 1), (2, 1, 1)])
    def test_matches_batch_reference_quality(self, grid_dims):
        x = low_rank_tensor((8, 9, 12), (3, 4, 4), seed=114, noise=0.01)
        tol, chunk = 0.05, 4
        batch = st_hosvd(x, tol=tol)
        batch_err = normalized_rms(x, batch.reconstruct())
        res = _stream_distributed(x, grid_dims, tol=tol, chunk=chunk)
        t = res[0]
        # Same budget as the textbook batch ST-HOSVD: comparable quality
        # and no more than a few extra directions per mode.
        assert normalized_rms(x, t.reconstruct()) <= max(tol, 3 * batch_err)
        for rs, rb, dim in zip(t.ranks, batch.ranks, x.shape):
            assert rs <= min(dim, 3 * rb)


class TestValidation:
    def test_time_mode_must_not_be_partitioned(self):
        def prog(comm):
            grid = CartGrid(comm, (1, 1, 2))
            DistStreamingTucker(grid, (4, 4), tol=0.1)

        with pytest.raises(SpmdError, match="time mode"):
            spmd(2, prog)

    def test_grid_order_checked(self):
        def prog(comm):
            grid = CartGrid(comm, (2, 1))
            DistStreamingTucker(grid, (4, 4), tol=0.1)

        with pytest.raises(SpmdError, match="grid order"):
            spmd(2, prog)

    def test_wrong_local_block_rejected(self):
        def prog(comm):
            grid = CartGrid(comm, (2, 1, 1))
            streamer = DistStreamingTucker(grid, (8, 4), tol=0.1)
            streamer.update(np.zeros((3, 4, 2)))  # should be (4, 4, t)

        with pytest.raises(SpmdError, match="does not match"):
            spmd(2, prog)

    def test_update_after_finalize(self):
        x = low_rank_tensor((6, 6, 4), (2, 2, 2), seed=115)

        def prog(comm):
            grid = CartGrid(comm, (1, 1, 1))
            streamer = DistStreamingTucker(grid, (6, 6), tol=0.1)
            streamer.update(x[..., :2])
            streamer.finalize()
            streamer.update(x[..., 2:])

        with pytest.raises(SpmdError, match="finalized"):
            spmd(1, prog)
