"""ST-HOSVD tests (Alg. 1): exact recovery, error control, orderings."""

import numpy as np
import pytest

from repro.core import greedy_flops_order, greedy_ratio_order, sthosvd
from repro.tensor import low_rank_tensor, random_tensor


class TestExactRecovery:
    def test_recovers_exact_low_rank(self):
        # tol must stay above sqrt(machine eps): the Gram method cannot
        # resolve smaller tails (the paper's working assumption, Sec. II-B).
        x = low_rank_tensor((8, 9, 10), (2, 3, 4), seed=1)
        res = sthosvd(x, tol=1e-6)
        assert res.ranks == (2, 3, 4)
        assert res.decomposition.relative_error(x) < 1e-6

    def test_prescribed_ranks(self):
        x = low_rank_tensor((8, 9, 10), (2, 3, 4), seed=1)
        res = sthosvd(x, ranks=(2, 3, 4))
        assert res.decomposition.relative_error(x) < 1e-10

    def test_full_ranks_reproduce_input(self, rng):
        x = rng.standard_normal((5, 6, 7))
        res = sthosvd(x, ranks=(5, 6, 7))
        np.testing.assert_allclose(res.decomposition.reconstruct(), x, atol=1e-9)

    def test_order_one_tensor(self, rng):
        x = rng.standard_normal(10)
        res = sthosvd(x, ranks=(1,))
        assert res.decomposition.reconstruct().shape == (10,)


class TestErrorControl:
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    def test_error_below_tolerance(self, eps):
        x = low_rank_tensor((10, 11, 12), (5, 5, 5), seed=2, noise=0.3)
        res = sthosvd(x, tol=eps)
        assert res.decomposition.relative_error(x) <= eps

    def test_error_estimate_matches_true_error(self):
        # For ST-HOSVD the eigenvalue-tail estimate is exact (ref [22]).
        x = low_rank_tensor((10, 11, 12), (5, 5, 5), seed=3, noise=0.1)
        res = sthosvd(x, tol=1e-2)
        true_err = res.decomposition.relative_error(x)
        assert res.error_estimate() == pytest.approx(true_err, rel=1e-6)

    def test_tighter_tol_higher_ranks(self):
        x = low_rank_tensor((10, 11, 12), (4, 4, 4), seed=4, noise=0.2)
        loose = sthosvd(x, tol=1e-1)
        tight = sthosvd(x, tol=1e-3)
        assert all(t >= l for t, l in zip(tight.ranks, loose.ranks))

    def test_factors_orthonormal(self):
        x = random_tensor((6, 7, 8), seed=5)
        res = sthosvd(x, tol=1e-1)
        for f in res.decomposition.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)

    def test_core_is_projection(self):
        # G = X x {U^T} for the returned factors.
        from repro.tensor import multi_ttm

        x = random_tensor((6, 7, 8), seed=6)
        res = sthosvd(x, ranks=(3, 3, 3))
        expected = multi_ttm(x, list(res.decomposition.factors), transpose=True)
        np.testing.assert_allclose(res.decomposition.core, expected, atol=1e-10)


class TestModeOrders:
    def test_any_order_same_error_scale(self):
        x = low_rank_tensor((8, 9, 10), (3, 3, 3), seed=7, noise=0.05)
        errs = []
        for order in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]:
            res = sthosvd(x, ranks=(3, 3, 3), mode_order=order)
            errs.append(res.decomposition.relative_error(x))
            assert res.mode_order == order
        assert max(errs) - min(errs) < 0.05

    def test_natural_order_string(self):
        x = random_tensor((4, 5), seed=8)
        res = sthosvd(x, ranks=(2, 2), mode_order="natural")
        assert res.mode_order == (0, 1)

    def test_invalid_order_string(self):
        with pytest.raises(ValueError, match="unknown mode_order"):
            sthosvd(random_tensor((4, 5), seed=0), ranks=(2, 2), mode_order="best")

    def test_invalid_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            sthosvd(random_tensor((4, 5), seed=0), ranks=(2, 2), mode_order=(0, 0))


class TestSvdMethod:
    def test_svd_matches_gram_on_benign_data(self):
        x = low_rank_tensor((8, 9, 10), (3, 3, 3), seed=9, noise=0.05)
        g = sthosvd(x, ranks=(3, 3, 3), method="gram")
        s = sthosvd(x, ranks=(3, 3, 3), method="svd")
        np.testing.assert_allclose(
            g.decomposition.reconstruct(), s.decomposition.reconstruct(), atol=1e-8
        )

    def test_svd_handles_tiny_tolerances(self):
        # Gram squares the condition number; SVD keeps ~1e-8-size tails
        # resolvable (the paper's Sec. IX improvement).
        x = low_rank_tensor((12, 12, 12), (3, 3, 3), seed=10, noise=1e-7)
        res = sthosvd(x, tol=1e-6, method="svd")
        assert res.ranks == (3, 3, 3)
        assert res.decomposition.relative_error(x) <= 1e-6

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            sthosvd(random_tensor((4, 4), seed=0), ranks=(2, 2), method="qr")


class TestValidation:
    def test_requires_exactly_one_selector(self):
        x = random_tensor((4, 5), seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            sthosvd(x)
        with pytest.raises(ValueError, match="exactly one"):
            sthosvd(x, tol=0.1, ranks=(2, 2))

    def test_nonpositive_tol(self):
        with pytest.raises(ValueError):
            sthosvd(random_tensor((4, 5), seed=0), tol=0.0)

    def test_nan_tol(self):
        # NaN passes ``tol <= 0``; it would keep full ranks and report a
        # zero error estimate.
        with pytest.raises(ValueError, match="tol must be positive"):
            sthosvd(random_tensor((8, 7, 6), seed=0), tol=float("nan"))

    def test_rank_exceeds_dim(self):
        with pytest.raises(ValueError, match="exceeds dimension"):
            sthosvd(random_tensor((4, 5), seed=0), ranks=(5, 5))

    def test_wrong_rank_count(self):
        with pytest.raises(ValueError):
            sthosvd(random_tensor((4, 5), seed=0), ranks=(2,))


class TestOrderingHeuristics:
    def test_greedy_ratio_sorts_by_compression(self):
        order = greedy_ratio_order((10, 100, 20), (5, 10, 10))
        # Ratios: 2, 10, 2 -> mode 1 first (smallest R/I), then ties by index.
        assert order[0] == 1

    def test_greedy_flops_prefers_cheap_first_step(self):
        # A small mode with big compression shrinks everything after it.
        order = greedy_flops_order((25, 250, 250, 250), (10, 10, 100, 100))
        assert order[0] in (0, 1)  # the two highest-compression modes

    def test_heuristics_return_permutations(self):
        for fn in (greedy_flops_order, greedy_ratio_order):
            order = fn((6, 7, 8), (2, 2, 2))
            assert sorted(order) == [0, 1, 2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            greedy_flops_order((4, 5), (2,))
        with pytest.raises(ValueError):
            greedy_ratio_order((4, 5), (2,))
