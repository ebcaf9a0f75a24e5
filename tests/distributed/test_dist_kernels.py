"""Parallel kernel tests: Alg. 3 (TTM), Alg. 4 (Gram), Alg. 5 (Evecs).

Every kernel is compared against its sequential reference on multiple grids,
modes, strategies, and uneven distributions.
"""

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_evecs, dist_gram, dist_ttm
from repro.distributed.layout import block_range
from repro.mpi import CartGrid, SpmdError
from repro.tensor import gram, ttm
from repro.tensor.eig import eigendecompose
from tests.conftest import spmd


def _x(shape=(6, 9, 4), seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def _v_local(dt, v, mode):
    sl = dt.local_slices[mode]
    return np.ascontiguousarray(v[:, sl])


class TestDistTtm:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["blocked", "reduce_scatter", "auto"])
    def test_matches_sequential(self, mode, strategy):
        x = _x((6, 9, 4))
        grid_dims = (2, 3, 2)
        k = 6  # divisible by every grid extent, allows reduce_scatter

        def prog(comm):
            g = CartGrid(comm, grid_dims)
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(42).standard_normal((k, x.shape[mode]))
            z = dist_ttm(dt, _v_local(dt, v, mode), mode, k, strategy=strategy)
            return z.to_global(), v

        res = spmd(12, prog)
        z_global, v = res[0]
        np.testing.assert_allclose(z_global, ttm(x, v, mode), atol=1e-10)

    def test_transposed_factor_direction(self):
        # The decomposition direction: V = U^T supplied as U_local.T.
        x = _x((8, 6, 4))
        u = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 3)))[0]

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            sl = dt.local_slices[0]
            z = dist_ttm(dt, u[sl].T.copy(), 0, 3)
            return z.to_global()

        for z in spmd(4, prog):
            np.testing.assert_allclose(z, ttm(x, u, 0, transpose=True), atol=1e-10)

    def test_uneven_blocks(self):
        x = _x((7, 5, 3))

        def prog(comm):
            g = CartGrid(comm, (3, 1, 1))
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(2).standard_normal((4, 7))
            z = dist_ttm(dt, _v_local(dt, v, 0), 0, 4, strategy="blocked")
            return z.to_global(), v

        z, v = spmd(3, prog)[0]
        np.testing.assert_allclose(z, ttm(x, v, 0), atol=1e-10)

    def test_single_proc_mode_no_comm(self):
        x = _x((6, 4))

        def prog(comm):
            g = CartGrid(comm, (1, 2))
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(3).standard_normal((3, 6))
            z = dist_ttm(dt, v, 0, 3)
            return z.to_global(), v

        z, v = spmd(2, prog)[0]
        np.testing.assert_allclose(z, ttm(x, v, 0), atol=1e-10)

    def test_reduce_scatter_requires_divisibility(self):
        x = _x((6, 4))

        def prog(comm):
            g = CartGrid(comm, (2, 1))
            dt = DistTensor.from_global(g, x)
            v = np.zeros((3, 3))
            dist_ttm(dt, v, 0, 3, strategy="reduce_scatter")

        with pytest.raises(SpmdError, match="requires"):
            spmd(2, prog)

    def test_output_dim_below_grid_extent_rejected(self):
        x = _x((8, 4))

        def prog(comm):
            g = CartGrid(comm, (4, 1))
            dt = DistTensor.from_global(g, x)
            dist_ttm(dt, np.zeros((2, 2)), 0, 2)

        with pytest.raises(SpmdError, match="smaller than grid extent"):
            spmd(4, prog)

    def test_v_local_shape_checked(self):
        x = _x((6, 4))

        def prog(comm):
            g = CartGrid(comm, (2, 1))
            dt = DistTensor.from_global(g, x)
            dist_ttm(dt, np.zeros((3, 5)), 0, 3)  # wrong column count

        with pytest.raises(SpmdError, match="columns"):
            spmd(2, prog)

    def test_unknown_strategy(self):
        x = _x((6, 4))

        def prog(comm):
            g = CartGrid(comm, (2, 1))
            dt = DistTensor.from_global(g, x)
            dist_ttm(dt, np.zeros((3, 3)), 0, 3, strategy="magic")

        with pytest.raises(SpmdError, match="unknown strategy"):
            spmd(2, prog)


class TestDistGram:
    @pytest.mark.parametrize("grid_dims", [(2, 3, 2), (1, 6, 2), (3, 2, 2)])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_sequential(self, grid_dims, mode):
        x = _x((6, 6, 4), seed=4)

        def prog(comm):
            g = CartGrid(comm, grid_dims)
            dt = DistTensor.from_global(g, x)
            s_rows = dist_gram(dt, mode)
            start, stop = block_range(
                x.shape[mode], grid_dims[mode], g.coords[mode]
            )
            return s_rows, (start, stop)

        res = spmd(12, prog)
        expected = gram(x, mode)
        for s_rows, (start, stop) in res:
            np.testing.assert_allclose(s_rows, expected[start:stop], atol=1e-9)

    def test_pn_equal_one_symmetric_path(self):
        x = _x((5, 8), seed=5)

        def prog(comm):
            g = CartGrid(comm, (1, 4))
            dt = DistTensor.from_global(g, x)
            return dist_gram(dt, 0)

        for s in spmd(4, prog):
            np.testing.assert_allclose(s, gram(x, 0), atol=1e-9)

    def test_uneven_ring(self):
        x = _x((7, 6), seed=6)

        def prog(comm):
            g = CartGrid(comm, (3, 2))
            dt = DistTensor.from_global(g, x)
            s_rows = dist_gram(dt, 0)
            start, stop = block_range(7, 3, g.coords[0])
            return s_rows, (start, stop)

        expected = gram(x, 0)
        for s_rows, (start, stop) in spmd(6, prog):
            np.testing.assert_allclose(s_rows, expected[start:stop], atol=1e-9)

    def test_replicated_across_row(self):
        x = _x((6, 6), seed=7)

        def prog(comm):
            g = CartGrid(comm, (2, 3))
            dt = DistTensor.from_global(g, x)
            s_rows = dist_gram(dt, 0)
            # All ranks with the same mode-0 coordinate must agree bitwise.
            row = g.mode_row(0)
            peers = row.allgather(s_rows)
            return all(np.array_equal(p, s_rows) for p in peers)

        assert all(spmd(6, prog).values)

    @pytest.mark.parametrize("pn", [2, 3, 4, 5, 6])
    def test_every_ring_length(self, pn):
        # 13 rows give uneven block ranges on every ring length, odd and
        # even: P_n - 1 peer blocks are in flight at once.
        x = _x((13, 6), seed=31)

        def prog(comm):
            g = CartGrid(comm, (pn, 1))
            dt = DistTensor.from_global(g, x)
            start, stop = block_range(13, pn, g.coords[0])
            return dist_gram(dt, 0), (start, stop)

        expected = gram(x, 0)
        for s_rows, (start, stop) in spmd(pn, prog):
            np.testing.assert_allclose(s_rows, expected[start:stop], atol=1e-9)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_ring_inside_a_3d_grid(self, mode):
        x = _x((7, 6, 5), seed=32)

        def prog(comm):
            g = CartGrid(comm, (3, 2, 1))
            dt = DistTensor.from_global(g, x)
            start, stop = block_range(x.shape[mode], g.dims[mode], g.coords[mode])
            return dist_gram(dt, mode), (start, stop)

        expected = gram(x, mode)
        for s_rows, (start, stop) in spmd(6, prog):
            np.testing.assert_allclose(s_rows, expected[start:stop], atol=1e-9)


class TestDistEvecs:
    def test_matches_sequential_eig(self):
        x = _x((6, 9, 4), seed=8)
        mode = 0

        def prog(comm):
            g = CartGrid(comm, (2, 3, 2))
            dt = DistTensor.from_global(g, x)
            s_rows = dist_gram(dt, mode)
            u_local, eig = dist_evecs(dt, s_rows, mode, rank=3)
            start, stop = block_range(6, 2, g.coords[mode])
            return u_local, eig.values, (start, stop)

        expected = eigendecompose(gram(x, mode))
        for u_local, values, (start, stop) in spmd(12, prog):
            np.testing.assert_allclose(values, expected.values, atol=1e-9)
            np.testing.assert_allclose(
                u_local, expected.leading(3)[start:stop], atol=1e-8
            )

    def test_threshold_rank_selection(self):
        x = _x((6, 8), seed=9)
        # Pick the threshold so the expected rank is deterministic.
        expected_eig = eigendecompose(gram(x, 0))
        threshold = float(expected_eig.values[4:].sum()) + 1e-9  # rank 4

        def prog(comm):
            g = CartGrid(comm, (2, 2))
            dt = DistTensor.from_global(g, x)
            s_rows = dist_gram(dt, 0)
            u_local, _ = dist_evecs(dt, s_rows, 0, threshold=threshold)
            return u_local.shape[1]

        assert set(spmd(4, prog).values) == {4}

    def test_requires_exactly_one_selector(self):
        x = _x((6, 8))

        def prog(comm):
            g = CartGrid(comm, (2, 2))
            dt = DistTensor.from_global(g, x)
            s_rows = dist_gram(dt, 0)
            dist_evecs(dt, s_rows, 0)

        with pytest.raises(SpmdError, match="exactly one"):
            spmd(4, prog)

    def test_s_rows_shape_checked(self):
        x = _x((6, 8))

        def prog(comm):
            g = CartGrid(comm, (2, 2))
            dt = DistTensor.from_global(g, x)
            dist_evecs(dt, np.zeros((3, 5)), 0, rank=2)

        with pytest.raises(SpmdError, match="does not match"):
            spmd(4, prog)


class TestReduceScatterLayout:
    def test_mode_front_no_copy_for_mode_zero(self, rng):
        # The reduce-scatter strategy historically ascontiguousarray-copied
        # the moveaxis view unconditionally; for mode 0 (the Fortran TTM
        # output itself) the view *is* the array and must pass through.
        from repro.distributed.ttm import _mode_front

        w = np.asfortranarray(rng.standard_normal((8, 5, 3)))
        front = _mode_front(w, 0)
        assert front is w or np.shares_memory(front, w)

    def test_mode_front_copies_interior_mode(self, rng):
        from repro.distributed.ttm import _mode_front

        w = np.asfortranarray(rng.standard_normal((8, 5, 3)))
        front = _mode_front(w, 1)
        assert front.shape == (5, 8, 3)
        assert front.flags.c_contiguous or front.flags.f_contiguous
        np.testing.assert_array_equal(front, np.moveaxis(w, 1, 0))

    @pytest.mark.parametrize("mode", [0, 1])
    def test_reduce_scatter_results_unchanged(self, mode):
        # End-to-end guard for the copy skip: same bits as the blocked
        # strategy's output on an evenly divisible problem.
        x = _x((8, 6, 4), seed=44)

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(5).standard_normal((2, x.shape[mode]))
            rs = dist_ttm(dt, _v_local(dt, v, mode), mode, 2,
                          strategy="reduce_scatter")
            bl = dist_ttm(dt, _v_local(dt, v, mode), mode, 2,
                          strategy="blocked")
            return rs.to_global(), bl.to_global(), v

        for rs, bl, v in spmd(4, prog):
            np.testing.assert_allclose(rs, ttm(x, v, mode), atol=1e-10)
            np.testing.assert_allclose(bl, ttm(x, v, mode), atol=1e-10)


class TestTtmBlockedPipeline:
    def test_uneven_blocks(self):
        x = _x((7, 5, 3), seed=46)

        def prog(comm):
            g = CartGrid(comm, (3, 1, 1))
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(7).standard_normal((5, 7))
            z = dist_ttm(dt, _v_local(dt, v, 0), 0, 5, strategy="blocked")
            return z.to_global(), v

        z, v = spmd(3, prog)[0]
        np.testing.assert_allclose(z, ttm(x, v, 0), atol=1e-10)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_uneven_blocks_every_mode(self, mode):
        # Every mode is split unevenly or not at all: the posted ireduce
        # chain must land each block of Z on its owner whatever the mode.
        x = _x((7, 5, 3), seed=47)
        k = 4

        def prog(comm):
            g = CartGrid(comm, (3, 2, 1))
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(8).standard_normal((k, x.shape[mode]))
            z = dist_ttm(dt, _v_local(dt, v, mode), mode, k, strategy="blocked")
            return z.to_global(), v

        for z, v in spmd(6, prog):
            np.testing.assert_allclose(z, ttm(x, v, mode), atol=1e-10)
