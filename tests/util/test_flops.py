"""Unit tests for flop-count formulas (paper Sec. V conventions)."""

import pytest

from repro.util.flops import (
    eig_flops,
    gram_flops,
    syrk_flops,
    ttm_flops,
)


class TestSyrkFlops:
    def test_full_cost_default(self):
        assert syrk_flops(5, 7) == 2 * 25 * 7

    def test_symmetric_half(self):
        # n(n+1)k, just over half the full cost.
        assert syrk_flops(5, 7, exploit_symmetry=True) == 5 * 6 * 7

    def test_symmetry_saves_close_to_half(self):
        full = syrk_flops(100, 50)
        half = syrk_flops(100, 50, exploit_symmetry=True)
        assert 0.5 < half / full < 0.51


class TestEigFlops:
    def test_paper_constant(self):
        # (10/3) n^3 for n = 6: 720.
        assert eig_flops(6) == 720

    def test_cubic_growth(self):
        assert eig_flops(20) == pytest.approx(8 * eig_flops(10), rel=0.01)


class TestTtmFlops:
    def test_matches_gemm_view(self):
        # X of 4x5x6 times K x 5 in mode 1: a (K x 5) by (5 x 24) gemm,
        # 2 m n k flops with m = K = 3, n = 4*6, k = 5.
        shape = (4, 5, 6)
        assert ttm_flops(shape, 1, 3) == 2 * 3 * 24 * 5

    def test_independent_of_mode_for_cube(self):
        assert ttm_flops((8, 8, 8), 0, 2) == ttm_flops((8, 8, 8), 2, 2)

    def test_negative_mode(self):
        assert ttm_flops((4, 5), -1, 2) == ttm_flops((4, 5), 1, 2)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ttm_flops((4, 5), 2, 3)


class TestGramFlops:
    def test_matches_syrk(self):
        shape = (4, 5, 6)
        assert gram_flops(shape, 0) == syrk_flops(4, 30)
