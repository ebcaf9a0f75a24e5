"""Gram-matrix kernel tests."""

import numpy as np
import pytest

from repro.tensor import gram, unfold


class TestGram:
    def test_definition(self, rng):
        x = rng.standard_normal((4, 5, 6))
        for n in range(3):
            mat = unfold(x, n)
            np.testing.assert_allclose(gram(x, n), mat @ mat.T, atol=1e-10)

    def test_symmetric_exactly(self, rng):
        s = gram(rng.standard_normal((5, 6, 7)), 1)
        np.testing.assert_array_equal(s, s.T)

    def test_psd(self, rng):
        s = gram(rng.standard_normal((6, 7)), 0)
        eigvals = np.linalg.eigvalsh(s)
        assert eigvals.min() > -1e-10

    def test_trace_equals_norm_sq(self, rng):
        # trace(X_(n) X_(n)^T) = ||X||^2 for every mode.
        x = rng.standard_normal((4, 5, 6))
        norm_sq = np.linalg.norm(x.ravel()) ** 2
        for n in range(3):
            assert np.trace(gram(x, n)) == pytest.approx(norm_sq)

    def test_invalid_mode(self, rng):
        with pytest.raises(ValueError):
            gram(rng.standard_normal((3, 3)), 5)


def gram_reference(x, mode):
    """The definition, by materialising the unfolding."""
    mat = unfold(x, mode)
    return mat @ mat.T


class TestOneKernel:
    """The sequential drivers and ``dist_gram`` share one layout-true
    kernel."""

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_definition(self, rng, mode):
        x = rng.standard_normal((3, 4, 2, 5))
        np.testing.assert_allclose(
            gram(x, mode), gram_reference(x, mode), atol=1e-10
        )

    def test_first_mode_single_block(self, rng):
        # For mode 0 there is one contiguous block; results must still match.
        x = rng.standard_normal((6, 35))
        np.testing.assert_allclose(gram(x, 0), gram_reference(x, 0), atol=1e-10)


class TestInteriorPanels:
    """Interior modes: sub-blocks are packed into a fixed-size panel, one
    syrk per panel; a sub-block already that large is multiplied in place."""

    @pytest.mark.parametrize("shape", [
        (3, 8, 64),       # one partial panel holds every sub-block
        (16, 64, 150),    # 64 sub-blocks per panel, a short last panel
        (300, 64, 5),     # a sub-block fills the panel: no packing
        (1040, 64, 3),    # sub-blocks larger than the panel
    ])
    def test_matches_per_block_sum(self, rng, shape):
        # Packing changes the order of the adds, not the products: the
        # result agrees with the sum of per-block outer products to a
        # float64 tolerance scaled by the number of terms.
        x = np.asfortranarray(rng.standard_normal(shape))
        s = np.zeros((shape[1], shape[1]))
        for b in range(shape[2]):
            block = x[:, :, b]
            s += block.T @ block
        got = gram(x, 1)
        np.testing.assert_allclose(
            got, (s + s.T) * 0.5, rtol=0, atol=1e-13 * shape[0] * shape[2]
        )
        np.testing.assert_array_equal(got, got.T)

    def test_read_only_fortran_input(self, rng):
        x = np.asfortranarray(rng.standard_normal((2, 9, 32)))
        x.flags.writeable = False
        np.testing.assert_allclose(
            gram(x, 1), gram_reference(np.array(x), 1), atol=1e-10
        )
