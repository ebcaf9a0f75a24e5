"""TSQR and Gram-free factor-computation tests (the Sec. IX extension)."""

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_mode_svd, dist_sthosvd, tsqr_r
from repro.distributed.layout import block_range, block_ranges
from repro.mpi import CartGrid, SpmdError
from repro.tensor import gram, low_rank_tensor, unfold
from repro.tensor.eig import _fix_signs, eigendecompose
from tests.conftest import recon_atol, spmd, suite_compute_dtype
from tests.reference import st_hosvd


class TestTsqrR:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
    def test_r_matches_sequential_qr(self, p):
        full = np.random.default_rng(5).standard_normal((7 * p, 5))
        rows = block_ranges(7 * p, p)

        def prog(comm):
            start, stop = rows[comm.rank]
            return tsqr_r(comm, full[start:stop])

        res = spmd(p, prog)
        expected = np.linalg.qr(full, mode="r")
        signs = np.sign(np.diag(expected))
        signs[signs == 0] = 1
        expected = signs[:, None] * expected
        for r in res:
            np.testing.assert_allclose(r, expected, atol=1e-10)

    def test_rtr_equals_gram(self):
        full = np.random.default_rng(6).standard_normal((20, 4))
        rows = block_ranges(20, 4)

        def prog(comm):
            start, stop = rows[comm.rank]
            return tsqr_r(comm, full[start:stop])

        r = spmd(4, prog)[0]
        np.testing.assert_allclose(r.T @ r, full.T @ full, atol=1e-10)

    def test_short_local_slabs(self):
        # Local slabs with fewer rows than columns must still combine.
        full = np.random.default_rng(7).standard_normal((6, 5))
        rows = block_ranges(6, 3)

        def prog(comm):
            start, stop = rows[comm.rank]
            return tsqr_r(comm, full[start:stop])

        r = spmd(3, prog)[0]
        np.testing.assert_allclose(r.T @ r, full.T @ full, atol=1e-10)

    def test_rejects_non_matrix(self):
        def prog(comm):
            tsqr_r(comm, np.zeros(5))

        with pytest.raises(SpmdError):
            spmd(2, prog)

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_every_rank_holds_identical_bytes(self, p):
        full = np.random.default_rng(40 + p).standard_normal((6 * p + 1, 5))
        rows = block_ranges(6 * p + 1, p)

        def prog(comm):
            start, stop = rows[comm.rank]
            return tsqr_r(comm, full[start:stop])

        res = spmd(p, prog)
        assert len({r.tobytes() for r in res.values}) == 1
        expected = np.linalg.qr(full, mode="r")
        signs = np.sign(np.diag(expected))
        signs[signs == 0] = 1
        np.testing.assert_allclose(
            res.values[0], signs[:, None] * expected, atol=1e-10
        )

    @pytest.mark.parametrize("p", [3, 5])
    def test_all_short_local_slabs_pad_at_the_end(self, p):
        # Fewer global rows than columns: every local R is short, so the
        # tree stacks true (unpadded) shapes all the way to the final pad.
        full = np.random.default_rng(50 + p).standard_normal((p + 2, 6))
        rows = block_ranges(p + 2, p)

        def prog(comm):
            start, stop = rows[comm.rank]
            return tsqr_r(comm, full[start:stop])

        res = spmd(p, prog)
        assert len({r.tobytes() for r in res.values}) == 1
        r = res.values[0]
        assert r.shape == (6, 6)  # padded to n x n
        np.testing.assert_allclose(r.T @ r, full.T @ full, atol=1e-10)


class TestTsqrFlopsAccounting:
    """Tree nodes charge the *true* stacked row count: zero-padded short
    R factors used to inflate every fold to ``2 (2n) n^2``."""

    N = 4

    def test_binary_charges_true_stacked_shapes(self):
        # m0=2 rows (short: R is 2x4), m1=7 rows (full: R is 4x4).
        full = np.random.default_rng(60).standard_normal((9, self.N))

        def prog(comm):
            start, stop = (0, 2) if comm.rank == 0 else (2, 9)
            tsqr_r(comm, full[start:stop])

        res = spmd(2, prog)
        n = self.N
        # Rank 0: local QR of 2 rows + fold of the true 2+4 stacked rows
        # (the padded tree would have charged 2*(2n)*n^2 = 2*8*n^2 here).
        assert res.ledger.rank_costs(0).flops == 2 * 2 * n * n + 2 * (2 + 4) * n * n
        # Rank 1: local QR only (it is eliminated in round one).
        assert res.ledger.rank_costs(1).flops == 2 * 7 * n * n

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    def test_binary_tree_charges_every_node(self, p):
        # Equal full slabs: every fold stacks two n x n triangles.  Rank r
        # folds at round k while bit k of r is clear and partner r + 2^k
        # exists; the broadcast of the final R adds no flops.
        m, n = 6, self.N
        full = np.random.default_rng(62).standard_normal((m * p, n))

        def prog(comm):
            tsqr_r(comm, full[comm.rank * m:(comm.rank + 1) * m])

        def folds(rank):
            count, step = 0, 1
            while step < p and rank % (2 * step) == 0:
                count += rank + step < p
                step *= 2
            return count

        res = spmd(p, prog)
        for rank in range(p):
            assert res.ledger.rank_costs(rank).flops == (
                2 * m * n * n + folds(rank) * 2 * (2 * n) * n * n
            ), f"rank {rank}"
        assert folds(0) == (p - 1).bit_length()


class TestDistModeSvd:
    @pytest.mark.parametrize("grid_dims", [(2, 3, 2), (1, 1, 1), (3, 2, 1)])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_sequential_spectrum(self, grid_dims, mode):
        x = np.random.default_rng(8).standard_normal((6, 6, 4))

        def prog(comm):
            g = CartGrid(comm, grid_dims)
            dt = DistTensor.from_global(g, x)
            u_local, eig = dist_mode_svd(dt, mode, rank=3)
            start, stop = block_range(
                x.shape[mode], grid_dims[mode], g.coords[mode]
            )
            return u_local, eig.values, (start, stop)

        expected = eigendecompose(gram(x, mode))
        n = int(np.prod(grid_dims))
        for u_local, values, (start, stop) in spmd(n, prog):
            np.testing.assert_allclose(values, expected.values, atol=1e-8)
            np.testing.assert_allclose(
                np.abs(u_local), np.abs(expected.leading(3)[start:stop]),
                atol=1e-7,
            )

    def test_singular_values_accurate_below_gram_floor(self):
        # Construct a matrixized tensor with sigma ~ 1e-9 tail: Gram loses
        # it (1e-18 eigenvalues below roundoff), TSQR keeps it.
        x = low_rank_tensor((12, 8, 8), (3, 8, 8), seed=9)
        x = x + 1e-9 * np.random.default_rng(0).standard_normal(x.shape)

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            _, eig = dist_mode_svd(dt, 0, rank=3)
            return eig.values

        values = spmd(4, prog)[0]
        sv = np.linalg.svd(unfold(x, 0), compute_uv=False)
        np.testing.assert_allclose(values, sv**2, rtol=1e-6)
        # The tail singular values are resolved at their true ~1e-9 scale.
        assert 1e-20 < values[5] < 1e-14

    def test_threshold_selection(self):
        x = low_rank_tensor((8, 6, 4), (2, 3, 2), seed=10, noise=1e-9)

        def prog(comm):
            g = CartGrid(comm, (2, 1, 2))
            dt = DistTensor.from_global(g, x)
            norm_sq = dt.norm_sq()
            u_local, _ = dist_mode_svd(
                dt, 0, threshold=(1e-7**2) * norm_sq / 3
            )
            return u_local.shape[1]

        assert set(spmd(4, prog).values) == {2}

    def test_validation(self):
        x = np.zeros((4, 4))

        def prog(comm):
            g = CartGrid(comm, (2, 2))
            dt = DistTensor.from_global(g, x)
            dist_mode_svd(dt, 0)

        with pytest.raises(SpmdError, match="exactly one"):
            spmd(4, prog)


class TestSvdSthosvd:
    def test_matches_gram_method_on_benign_data(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=11, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2), method="svd")
            return t.to_tucker()

        ref = st_hosvd(x, ranks=(3, 3, 2))
        for tucker in spmd(6, prog):
            np.testing.assert_allclose(
                tucker.reconstruct(), ref.reconstruct(),
                atol=recon_atol(),
            )

    def test_matches_reference_svd_method_ranks(self):
        x = low_rank_tensor((12, 8, 6), (3, 2, 2), seed=12, noise=1e-9)

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, tol=1e-8, method="svd")
            return t.ranks, t.mode_order

        for ranks, order in spmd(4, prog):
            # The ranks a tolerance picks depend on the order the driver
            # planned; the reference processes the modes in that order.
            ref = st_hosvd(x, tol=1e-8, method="svd", mode_order=order)
            if suite_compute_dtype() == "float64":
                assert ranks == ref.ranks
            else:
                # tol=1e-8 sits far below the float32 noise floor: the
                # narrow sweep cannot resolve tails that small and keeps
                # extra (noise-level) directions rather than dropping any.
                assert all(r >= rs for r, rs in zip(ranks, ref.ranks))

    def test_ledger_uses_svd_section(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=13, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 1, 1))
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, ranks=(3, 3, 2), method="svd")
            return None

        res = spmd(2, prog)
        sections = res.ledger.section_times()
        assert "svd" in sections
        assert "gram" not in sections

    def test_unknown_method(self):
        x = np.zeros((4, 4))

        def prog(comm):
            g = CartGrid(comm, (2, 2))
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, ranks=(2, 2), method="cholesky")

        with pytest.raises(SpmdError, match="unknown method"):
            spmd(4, prog)


def _old_style_mode_svd(dt, mode, rank):
    """The pre-pipeline slab assembly: C-ordered slab, blocking ring, one
    transposed strided assignment per arriving block — the double-copy
    construction the F-ordered assembly replaced.  Kept as the regression
    reference: the single-copy path must reproduce its bits exactly."""
    jn = dt.global_shape[mode]
    col = dt.grid.mode_column(mode)
    pn, my_pn = col.size, col.rank
    row_start, row_stop = block_range(jn, pn, my_pn)
    local_unf = dt.local_unfolding(mode)
    base, rem = divmod(local_unf.shape[1], pn)
    keep_start = my_pn * base + min(my_pn, rem)
    keep_stop = keep_start + base + (1 if my_pn < rem else 0)
    keep = slice(keep_start, keep_stop)

    slab = np.zeros((keep_stop - keep_start, jn))
    slab[:, row_start:row_stop] = local_unf[:, keep].T
    for i in range(1, pn):
        dst = (my_pn - i) % pn
        src = (my_pn + i) % pn
        w = col.sendrecv(dt.local, dest=dst, source=src, tag=("refsvd", i))
        w_arr = np.asarray(w)
        w_unf = np.reshape(
            np.moveaxis(w_arr, mode, 0), (w_arr.shape[mode], -1), order="F"
        )
        w_rows = block_range(jn, pn, src)
        slab[:, w_rows[0] : w_rows[1]] = w_unf[:, keep].T

    r = tsqr_r(dt.comm, slab)
    _, sing, vt = np.linalg.svd(r)
    vectors = _fix_signs(vt.T)
    u = vectors[:, :rank]
    return np.array(u[row_start:row_stop], copy=True), sing**2


class TestSlabAssemblyBitIdentity:
    """The F-ordered single-copy slab assembly is a layout change only:
    factors and spectra must be *bitwise* identical to the old C-ordered
    double-copy construction."""

    @pytest.mark.parametrize("grid_dims", [(2, 2, 1), (4, 1, 1), (1, 3, 2)])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_double_copy_assembly(self, grid_dims, mode):
        # Uneven extents so short slabs and ragged keep-ranges appear.
        x = np.random.default_rng(71).standard_normal((7, 6, 5))

        def prog(comm):
            g = CartGrid(comm, grid_dims)
            dt = DistTensor.from_global(g, x)
            u_new, eig = dist_mode_svd(dt, mode, rank=3)
            u_ref, values_ref = _old_style_mode_svd(dt, mode, rank=3)
            return (
                u_new.tobytes() == u_ref.tobytes(),
                eig.values.tobytes() == values_ref.tobytes(),
            )

        for u_same, v_same in spmd(int(np.prod(grid_dims)), prog):
            assert u_same and v_same
