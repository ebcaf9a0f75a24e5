"""T-HOSVD baseline tests (paper Sec. II-B)."""

import numpy as np
import pytest

from repro.core import hosvd, sthosvd
from repro.tensor import low_rank_tensor, random_tensor


class TestHosvd:
    def test_recovers_exact_low_rank(self):
        # tol above sqrt(machine eps): Gram tails below that are roundoff.
        x = low_rank_tensor((8, 9, 10), (2, 3, 4), seed=1)
        res = hosvd(x, tol=1e-6)
        assert res.ranks == (2, 3, 4)
        assert res.decomposition.relative_error(x) < 1e-6

    def test_error_bound_holds(self):
        # eq. (3): true error <= sqrt(sum of truncated tails) <= eps.
        x = low_rank_tensor((10, 11, 12), (5, 5, 5), seed=2, noise=0.2)
        res = hosvd(x, tol=0.05)
        true_err = res.decomposition.relative_error(x)
        assert true_err <= res.error_estimate() + 1e-12
        assert true_err <= 0.05

    def test_sthosvd_error_not_worse_than_bound(self):
        # ST-HOSVD satisfies the same eps guarantee as T-HOSVD.
        x = low_rank_tensor((10, 11, 12), (5, 5, 5), seed=3, noise=0.2)
        tv = hosvd(x, tol=0.05)
        st = sthosvd(x, tol=0.05)
        assert st.decomposition.relative_error(x) <= 0.05
        assert tv.decomposition.relative_error(x) <= 0.05

    def test_eigenvalues_are_of_original_tensor(self):
        # T-HOSVD spectra come from X itself in every mode (unlike ST-HOSVD,
        # whose later modes see the shrunken tensor).
        from repro.tensor import gram
        from repro.tensor.eig import eigendecompose

        x = random_tensor((6, 7, 8), seed=4)
        res = hosvd(x, ranks=(3, 3, 3))
        for n in range(3):
            expected = eigendecompose(gram(x, n)).values
            np.testing.assert_allclose(res.eigenvalues[n], expected, atol=1e-10)

    def test_prescribed_ranks(self):
        x = random_tensor((6, 7, 8), seed=5)
        res = hosvd(x, ranks=(2, 3, 4))
        assert res.ranks == (2, 3, 4)

    def test_factors_orthonormal(self):
        x = random_tensor((6, 7), seed=6)
        res = hosvd(x, ranks=(3, 3))
        for f in res.decomposition.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(3), atol=1e-10)

    def test_validation(self):
        x = random_tensor((4, 5), seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            hosvd(x)
        with pytest.raises(ValueError):
            hosvd(x, tol=-1.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            hosvd(x, tol=float("nan"))
        with pytest.raises(ValueError):
            hosvd(x, ranks=(9, 2))

    def test_sthosvd_at_least_as_accurate_for_same_ranks(self):
        # With equal ranks, ST-HOSVD error <= T-HOSVD error on typical data
        # is not guaranteed, but both must be within the combined tail bound.
        x = low_rank_tensor((10, 10, 10), (4, 4, 4), seed=7, noise=0.3)
        ranks = (3, 3, 3)
        tv = hosvd(x, ranks=ranks)
        st = sthosvd(x, ranks=ranks)
        bound = tv.error_estimate()
        assert st.decomposition.relative_error(x) <= bound + 1e-12
        assert tv.decomposition.relative_error(x) <= bound + 1e-12
