"""Checklist: the paper's textual claims, one test each.

Beyond the figures and tables, the paper makes specific quantitative
statements in prose.  This module pins each to an executable check, with
the section quoted, so a reader can audit claim coverage in one place.
Claims about the physical Cray (absolute wall-clock) are checked against
the calibrated model (``repro.perfmodel``).
"""

import numpy as np
import pytest

from repro.core import hooi, sthosvd
from repro.data import center_and_scale, load_dataset
from repro.perfmodel import (
    EDISON_CALIBRATED,
    UNIT,
    gram_cost,
    sthosvd_cost,
    sthosvd_memory_bound,
    ttm_cost,
)
from repro.tensor import low_rank_tensor, multi_ttm, ttm
from repro.util.validation import prod


class TestSectionI:
    def test_intro_size_arithmetic(self):
        """Sec. I: 512^3 grid x 64 variables x 128 steps = 8 TB doubles."""
        words = 512**3 * 64 * 128
        assert words * 8 == 8 * 1024**4  # exactly 8 TiB

    def test_compression_to_gigabytes_enables_transfer(self):
        """Sec. I: 'terabytes of data ... reduced to gigabytes or
        megabytes' — at the paper's SP eps=1e-2 ratio (5580x), 550 GB
        becomes ~100 MB."""
        assert 550e9 / 5580 < 150e6


class TestSectionII:
    def test_storage_dominated_by_core(self):
        """Sec. II-B: factor-matrix storage 'is generally negligible
        compared to the storage of the core'."""
        shape, ranks = (500, 500, 500, 11, 50), (81, 129, 127, 7, 32)
        core = prod(ranks)
        factors = sum(i * r for i, r in zip(shape, ranks))
        assert factors < 0.01 * core

    def test_optimal_core_given_factors(self):
        """Sec. II-B: 'the optimal core is given by G = X x {U^(n)T}'."""
        x = low_rank_tensor((8, 7, 6), (3, 3, 3), seed=1, noise=0.1)
        res = sthosvd(x, ranks=(2, 2, 2))
        t = res.decomposition
        # Any other core with the same factors reconstructs worse.
        rng = np.random.default_rng(0)
        for _ in range(3):
            other = t.core + 0.1 * rng.standard_normal(t.core.shape)
            worse = multi_ttm(other, list(t.factors), transpose=False)
            assert np.linalg.norm(x - worse) > np.linalg.norm(
                x - t.reconstruct()
            )

    def test_ttm_order_irrelevant(self):
        """Sec. II-A: 'The order of multiplications is irrelevant'."""
        x = np.random.default_rng(1).standard_normal((4, 5, 6))
        w = np.random.default_rng(2).standard_normal((2, 4))
        v = np.random.default_rng(3).standard_normal((3, 6))
        np.testing.assert_allclose(
            ttm(ttm(x, w, 0), v, 2), ttm(ttm(x, v, 2), w, 0), atol=1e-12
        )

    def test_fit_tracking_identity(self):
        """Alg. 2 line 10: '||X||^2 - ||G||^2 ... is equivalent to the fit
        of the model ||X - G x {U^(n)}||^2'."""
        x = low_rank_tensor((8, 7, 6), (4, 3, 3), seed=2, noise=0.2)
        res = hooi(x, ranks=(3, 2, 2), max_iterations=2, improvement_tol=0.0)
        fit = np.linalg.norm(x - res.decomposition.reconstruct()) ** 2
        assert res.residual_history[-1] == pytest.approx(fit, rel=1e-8)


class TestSectionVI:
    def test_memory_three_times_data(self):
        """Sec. I/III: the algorithm needs 'adequate memory, e.g., three
        times the size of the data' — eq. (2) stays under 3 I/P for the
        paper's strong-scaling configuration."""
        bound = sthosvd_memory_bound((200,) * 4, (20,) * 4, (1, 1, 4, 6))
        assert bound < 3 * 200**4 / 24

    def test_gram_bandwidth_factor_two_vs_ttm(self):
        """Sec. VI-A: 'Gram has a factor of 2 on the bandwidth cost'
        relative to TTM (and an I_n/R_n flop factor)."""
        shape, grid = (64, 64, 64), (4, 2, 2)
        g = gram_cost(shape, 0, grid, UNIT)
        t = ttm_cost(shape, 0, 16, grid, UNIT)
        # Ring words = 2 (Pn-1) J/P; TTM words = (Pn-1) Jhat K / P.  With
        # K = Jn the ratio of the ring term alone is exactly 2.
        t_full = ttm_cost(shape, 0, shape[0], grid, UNIT)
        ring_words = 2 * (grid[0] - 1) * prod(shape) / prod(grid)
        assert g.words >= ring_words  # ring + all-reduce
        assert ring_words == pytest.approx(2 * t_full.words)
        # Flop factor I_n / R_n.
        assert g.flops / t.flops == pytest.approx(shape[0] / 16)

    def test_first_iteration_dominates(self):
        """Sec. VIII-B: 'the initial iteration consumes at least half of
        the overall running time' for most grids."""
        cost = sthosvd_cost((384,) * 4, (96,) * 4, (1, 1, 16, 24),
                            EDISON_CALIBRATED)
        first_mode_time = sum(
            c.time for kernel, mode, c in cost.steps if mode == 0
        )
        assert first_mode_time > 0.5 * cost.time

    def test_first_gram_vs_ttm_factor(self):
        """Sec. VIII-B: 'the first Gram is more expensive than the first
        TTM by a factor of at least I1/R1 = 4'."""
        cost = sthosvd_cost((384,) * 4, (96,) * 4, (1, 1, 16, 24),
                            EDISON_CALIBRATED)
        gram0 = next(c for k, m, c in cost.steps if k == "gram" and m == 0)
        ttm0 = next(c for k, m, c in cost.steps if k == "ttm" and m == 0)
        assert gram0.flops / ttm0.flops >= 4.0


class TestSectionVII:
    @pytest.fixture(scope="class")
    def hcci(self):
        ds = load_dataset("HCCI", shape=(24, 24, 12, 20))
        x, _ = center_and_scale(ds.tensor, ds.species_mode)
        return x

    def test_50_to_75_percent_reduction_at_1e6(self, hcci):
        """Sec. I: 'reduce the data by 50-75% with normalized RMS errors
        less than 1e-6' (SVD method; proxy scale gives the lower end)."""
        res = sthosvd(hcci, tol=1e-6, method="svd")
        assert res.decomposition.compression_ratio > 1.9  # >= ~50% reduction
        assert res.decomposition.relative_error(hcci) < 1e-6

    def test_999_percent_reduction_at_1e2(self, hcci):
        """Sec. I: 'by 99.9% and more with normalized RMS errors less than
        1e-2' — the full-size datasets reach 1000x; the small proxy must
        still exceed 95% reduction."""
        res = sthosvd(hcci, tol=1e-2)
        assert res.decomposition.compression_ratio > 20
        assert res.decomposition.relative_error(hcci) <= 1e-2

    def test_hooi_little_improvement(self, hcci):
        """Sec. VII-C: 'HOOI iterations make little improvements on the
        ST-HOSVD initialization'."""
        st = sthosvd(hcci, tol=1e-3)
        ho = hooi(hcci, init=st, max_iterations=5)
        e_st = st.decomposition.relative_error(hcci)
        e_ho = ho.decomposition.relative_error(hcci)
        assert 0 <= (e_st - e_ho) / e_st < 0.1
