"""Parallel HOOI tests against the textbook reference."""

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_hooi, dist_sthosvd, self_grid
from repro.mpi import CartGrid
from repro.tensor import low_rank_tensor
from tests.conftest import spmd, suite_compute_dtype
from tests.reference import hooi


class TestAgreement:
    @pytest.mark.parametrize("grid_dims", [(2, 2, 1), (1, 1, 1), (2, 1, 2)])
    def test_residual_history_matches_reference(self, grid_dims):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=1, noise=0.1)
        iters = 4
        ref = hooi(x, ranks=(3, 2, 2), iterations=iters)

        def prog(comm):
            g = CartGrid(comm, grid_dims)
            dt = DistTensor.from_global(g, x)
            res = dist_hooi(
                dt, ranks=(3, 2, 2), max_iterations=iters, improvement_tol=0.0
            )
            return res.residual_history

        n = int(np.prod(grid_dims))
        # A narrowed suite runs the float32 init path, so the first
        # iterates start ~sqrt(eps_f32) away from the reference ones and
        # the float64 sweeps contract onto the same history (measured
        # 6e-7 relative at entry 0, 1e-12 by entry 4).
        rtol = 1e-8 if suite_compute_dtype() == "float64" else 1e-5
        for hist in spmd(n, prog):
            np.testing.assert_allclose(
                hist, ref.residual_history, rtol=rtol, atol=1e-10
            )

    def test_reconstruction_matches_reference(self):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=2, noise=0.1)
        ref = hooi(x, ranks=(3, 2, 2), iterations=3)

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            res = dist_hooi(
                dt, ranks=(3, 2, 2), max_iterations=3, improvement_tol=0.0
            )
            return res.decomposition.to_tucker()

        for tucker in spmd(4, prog):
            np.testing.assert_allclose(
                tucker.reconstruct(), ref.reconstruct(), atol=1e-8
            )

    def test_monotone_residuals(self):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=3, noise=0.2)

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            res = dist_hooi(
                dt, ranks=(3, 2, 2), max_iterations=5, improvement_tol=0.0
            )
            h = np.array(res.residual_history)
            return bool(np.all(np.diff(h) <= 1e-9 * h[0] + 1e-12))

        assert all(spmd(4, prog).values)

    def test_convergence_flag(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=4)

        def prog(comm):
            g = CartGrid(comm, (2, 1, 1))
            dt = DistTensor.from_global(g, x)
            res = dist_hooi(dt, ranks=(3, 3, 2), max_iterations=10)
            return res.converged, res.n_iterations

        for converged, iters in spmd(2, prog):
            assert converged
            assert iters <= 2

    def test_reuses_init(self):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=5, noise=0.1)

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            init = dist_sthosvd(dt, ranks=(3, 2, 2))
            res = dist_hooi(dt, init=init, max_iterations=2, improvement_tol=0.0)
            return res.ranks, res.error_estimate()

        ref = hooi(x, ranks=(3, 2, 2), iterations=2)
        want = np.sqrt(ref.residual_history[-1]) / np.linalg.norm(x.ravel())
        for ranks, est in spmd(4, prog):
            assert ranks == (3, 2, 2)
            assert est == pytest.approx(want, rel=1e-6)


class TestValidation:
    def test_nan_improvement_tol_rejected(self):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=3, noise=0.1)
        dt = DistTensor.from_global(self_grid(3), x)
        with pytest.raises(ValueError, match="improvement_tol must be >= 0"):
            dist_hooi(dt, ranks=(3, 2, 2), improvement_tol=float("nan"))
