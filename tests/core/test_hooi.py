"""HOOI tests (Alg. 2): monotone fit, convergence, init reuse."""

import numpy as np
import pytest

from repro.core import hooi, sthosvd
from repro.tensor import low_rank_tensor, random_tensor


class TestFitBehaviour:
    def test_residual_monotone_nonincreasing(self):
        x = low_rank_tensor((10, 11, 12), (4, 4, 4), seed=1, noise=0.2)
        res = hooi(x, ranks=(3, 3, 3), max_iterations=10, improvement_tol=0.0)
        h = np.array(res.residual_history)
        assert np.all(np.diff(h) <= 1e-9 * h[0])

    def test_improves_or_matches_sthosvd(self):
        x = low_rank_tensor((10, 11, 12), (4, 4, 4), seed=2, noise=0.3)
        st = sthosvd(x, ranks=(2, 2, 2))
        ho = hooi(x, init=st, max_iterations=10)
        assert (
            ho.decomposition.relative_error(x)
            <= st.decomposition.relative_error(x) + 1e-12
        )

    def test_exact_data_immediate_convergence(self):
        x = low_rank_tensor((8, 9, 10), (2, 3, 4), seed=3)
        res = hooi(x, ranks=(2, 3, 4), max_iterations=10)
        assert res.converged
        assert res.n_iterations <= 2
        assert res.residual_history[-1] < 1e-16

    def test_fit_identity_matches_true_residual(self):
        # ||X||^2 - ||G||^2 == ||X - reconstruction||^2 (Alg. 2 line 10).
        x = low_rank_tensor((9, 10, 11), (4, 4, 4), seed=4, noise=0.15)
        res = hooi(x, ranks=(3, 3, 3), max_iterations=4, improvement_tol=0.0)
        true_res_sq = (
            np.linalg.norm((x - res.decomposition.reconstruct()).ravel()) ** 2
        )
        assert res.residual_history[-1] == pytest.approx(true_res_sq, rel=1e-8)

    def test_error_estimate(self):
        x = low_rank_tensor((9, 10, 11), (3, 3, 3), seed=5, noise=0.1)
        res = hooi(x, ranks=(2, 2, 2), max_iterations=3)
        x_norm = float(np.linalg.norm(x.ravel()))
        assert res.error_estimate(x_norm) == pytest.approx(
            res.decomposition.relative_error(x), rel=1e-6
        )


class TestConvergenceControls:
    def test_max_iterations_respected(self):
        x = random_tensor((8, 9, 10), seed=6)
        res = hooi(x, ranks=(3, 3, 3), max_iterations=2, improvement_tol=0.0)
        assert res.n_iterations == 2
        assert not res.converged

    def test_zero_iterations_returns_init(self):
        x = random_tensor((8, 9, 10), seed=7)
        st = sthosvd(x, ranks=(3, 3, 3))
        res = hooi(x, init=st, max_iterations=0)
        np.testing.assert_array_equal(res.decomposition.core, st.decomposition.core)
        assert res.n_iterations == 0

    def test_improvement_tol_stops_early(self):
        x = low_rank_tensor((8, 9, 10), (3, 3, 3), seed=8, noise=0.01)
        res = hooi(x, ranks=(3, 3, 3), max_iterations=50, improvement_tol=1e-6)
        assert res.converged
        assert res.n_iterations < 50

    def test_negative_controls_rejected(self):
        x = random_tensor((4, 5), seed=0)
        with pytest.raises(ValueError):
            hooi(x, ranks=(2, 2), max_iterations=-1)
        with pytest.raises(ValueError):
            hooi(x, ranks=(2, 2), improvement_tol=-0.1)

    def test_nan_improvement_tol_rejected(self):
        x = random_tensor((4, 5), seed=0)
        with pytest.raises(ValueError, match="improvement_tol must be >= 0"):
            hooi(x, ranks=(2, 2), improvement_tol=float("nan"))


class TestInitHandling:
    def test_init_shape_mismatch(self):
        x = random_tensor((6, 7), seed=9)
        st = sthosvd(random_tensor((5, 7), seed=9), ranks=(2, 2))
        with pytest.raises(ValueError, match="does not match input"):
            hooi(x, init=st)

    def test_init_result_attached(self):
        x = random_tensor((6, 7), seed=10)
        res = hooi(x, ranks=(2, 2), max_iterations=1)
        assert res.init is not None
        assert res.init.ranks == (2, 2)

    def test_ranks_fixed_by_init(self):
        x = random_tensor((6, 7, 8), seed=11)
        res = hooi(x, tol=0.5, max_iterations=2)
        assert res.ranks == res.init.ranks

    def test_factors_stay_orthonormal(self):
        x = random_tensor((6, 7, 8), seed=12)
        res = hooi(x, ranks=(3, 3, 3), max_iterations=3, improvement_tol=0.0)
        for f in res.decomposition.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)
