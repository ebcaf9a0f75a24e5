"""Baseline compressor tests (PCA and Tucker1)."""

import numpy as np
import pytest

from repro.baselines import PcaCompressor, Tucker1Compressor
from repro.core import sthosvd
from repro.tensor import low_rank_tensor, random_tensor


class TestPcaCompressor:
    def test_exact_rank_recovery(self):
        x = low_rank_tensor((10, 8, 6), (3, 8, 6), seed=70)
        c = PcaCompressor(mode=0).compress(x, rank=3)
        assert c.relative_error(x) < 1e-10

    def test_tol_meets_budget(self):
        x = low_rank_tensor((10, 8, 6), (4, 8, 6), seed=71, noise=0.05)
        c = PcaCompressor(mode=0).compress(x, tol=0.05)
        assert c.relative_error(x) <= 0.05

    def test_storage_formula(self):
        x = random_tensor((10, 8, 6), seed=72)
        c = PcaCompressor(mode=0).compress(x, rank=2)
        assert c.storage_words == 2 * 10 + 2 + 2 * 48

    def test_rank_monotone_in_tol(self):
        x = low_rank_tensor((10, 8, 6), (5, 8, 6), seed=73, noise=0.1)
        loose = PcaCompressor(0).compress(x, tol=0.3)
        tight = PcaCompressor(0).compress(x, tol=0.01)
        assert tight.rank >= loose.rank

    def test_validation(self):
        x = random_tensor((6, 6), seed=74)
        comp = PcaCompressor(0)
        with pytest.raises(ValueError, match="exactly one"):
            comp.compress(x)
        with pytest.raises(ValueError):
            comp.compress(x, tol=-1.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            comp.compress(x, tol=float("nan"))
        with pytest.raises(ValueError):
            comp.compress(x, rank=7)


class TestTucker1Compressor:
    def test_exact_rank_recovery(self):
        x = low_rank_tensor((10, 8, 6), (3, 8, 6), seed=75)
        c = Tucker1Compressor(mode=0).compress(x, rank=3)
        assert c.relative_error(x) < 1e-7

    def test_matches_pca_error_same_rank(self):
        # Tucker1 and PCA on the same mode/rank give the same subspace,
        # hence the same error.
        x = low_rank_tensor((10, 8, 6), (5, 8, 6), seed=76, noise=0.1)
        t1 = Tucker1Compressor(0).compress(x, rank=3)
        pca = PcaCompressor(0).compress(x, rank=3)
        assert t1.relative_error(x) == pytest.approx(
            pca.relative_error(x), rel=1e-6
        )

    def test_tucker1_stores_less_than_pca(self):
        # Tucker1's core is the projected tensor (R x I_hat); PCA stores
        # U, s, V — one extra length-R vector plus the I_n x R factor twice
        # effectively.  Tucker1 is never bigger.
        x = random_tensor((10, 8, 6), seed=77)
        t1 = Tucker1Compressor(0).compress(x, rank=3)
        pca = PcaCompressor(0).compress(x, rank=3)
        assert t1.storage_words <= pca.storage_words

    def test_to_tucker_roundtrip(self):
        x = random_tensor((6, 5, 4), seed=78)
        c = Tucker1Compressor(1).compress(x, rank=2)
        np.testing.assert_allclose(
            c.to_tucker().reconstruct(), c.reconstruct(), atol=1e-10
        )

    def test_tol_meets_budget(self):
        x = low_rank_tensor((10, 8, 6), (4, 8, 6), seed=79, noise=0.05)
        c = Tucker1Compressor(0).compress(x, tol=0.05)
        assert c.relative_error(x) <= 0.05

    def test_nan_tol_rejected(self):
        x = random_tensor((6, 6), seed=74)
        with pytest.raises(ValueError, match="tol must be positive"):
            Tucker1Compressor(0).compress(x, tol=float("nan"))


class TestTuckerBeatsBaselines:
    """The paper's core motivation: multilinear structure in *all* modes."""

    def test_tucker_compresses_more_at_equal_error(self):
        x = low_rank_tensor((12, 12, 12), (3, 3, 3), seed=80, noise=1e-6)
        eps = 1e-3
        tucker = sthosvd(x, tol=eps)
        best_baseline = max(
            PcaCompressor(mode).compress(x, tol=eps).compression_ratio
            for mode in range(3)
        )
        assert tucker.decomposition.compression_ratio > 3 * best_baseline
