"""TTM kernel tests: identities from paper Sec. II-A."""

import numpy as np
import pytest

from repro.tensor import fold, multi_ttm, ttm, unfold


def ttm_reference(x, v, mode, transpose=False):
    """The definition ``Y_(n) = V X_(n)``, by materialising the unfolding."""
    v = v.T if transpose else v
    shape = x.shape[:mode] + (v.shape[0],) + x.shape[mode + 1 :]
    return fold(v @ unfold(x, mode), mode, shape)


class TestTtmBasics:
    def test_defining_identity(self, rng):
        # Y = X x_n V  <=>  Y_(n) = V X_(n).
        x = rng.standard_normal((4, 5, 6))
        v = rng.standard_normal((7, 5))
        y = ttm(x, v, 1)
        assert y.shape == (4, 7, 6)
        np.testing.assert_allclose(unfold(y, 1), v @ unfold(x, 1), atol=1e-12)

    def test_all_modes(self, rng):
        x = rng.standard_normal((3, 4, 5, 6))
        for n in range(4):
            v = rng.standard_normal((2, x.shape[n]))
            y = ttm(x, v, n)
            np.testing.assert_allclose(unfold(y, n), v @ unfold(x, n), atol=1e-12)

    def test_transpose_flag(self, rng):
        x = rng.standard_normal((4, 5, 6))
        u = rng.standard_normal((5, 3))  # I_n x R_n factor shape
        np.testing.assert_allclose(
            ttm(x, u, 1, transpose=True), ttm(x, u.T, 1), atol=1e-12
        )

    def test_identity_matrix_is_noop(self, rng):
        x = rng.standard_normal((4, 5))
        np.testing.assert_allclose(ttm(x, np.eye(5), 1), x, atol=1e-14)

    def test_commutativity_distinct_modes(self, rng):
        # X x_m W x_n V = X x_n V x_m W for m != n (paper Sec. II-A).
        x = rng.standard_normal((4, 5, 6))
        w = rng.standard_normal((3, 4))
        v = rng.standard_normal((2, 6))
        a = ttm(ttm(x, w, 0), v, 2)
        b = ttm(ttm(x, v, 2), w, 0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_same_mode_composition(self, rng):
        # X x_n V x_n W = X x_n (W V).
        x = rng.standard_normal((4, 5))
        v = rng.standard_normal((3, 5))
        w = rng.standard_normal((2, 3))
        np.testing.assert_allclose(
            ttm(ttm(x, v, 1), w, 1), ttm(x, w @ v, 1), atol=1e-12
        )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ttm(rng.standard_normal((4, 5)), rng.standard_normal((3, 6)), 1)

    def test_rejects_non_matrix(self, rng):
        with pytest.raises(ValueError, match="must be 2-D"):
            ttm(rng.standard_normal((4, 5)), rng.standard_normal(5), 1)


class TestOneKernel:
    """Every caller, sequential or distributed, runs one layout-true
    kernel."""

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_definition(self, rng, mode):
        x = rng.standard_normal((3, 4, 5, 2))
        v = rng.standard_normal((6, x.shape[mode]))
        np.testing.assert_allclose(
            ttm(x, v, mode), ttm_reference(x, v, mode), atol=1e-12
        )

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_transpose_matches(self, rng, mode):
        x = rng.standard_normal((4, 5, 6))
        u = rng.standard_normal((x.shape[mode], 3))
        np.testing.assert_allclose(
            ttm(x, u, mode, transpose=True),
            ttm_reference(x, u, mode, transpose=True),
            atol=1e-12,
        )

    def test_output_fortran_ordered(self, rng):
        x = np.asfortranarray(rng.standard_normal((3, 4, 5)))
        y = ttm(x, rng.standard_normal((2, 4)), 1)
        assert y.flags.f_contiguous

    def test_c_ordered_input_keeps_its_layout(self, rng):
        x = np.ascontiguousarray(rng.standard_normal((3, 4, 5)))
        v = rng.standard_normal((2, 4))
        y = ttm(x, v, 1)
        assert y.flags.c_contiguous
        np.testing.assert_allclose(y, ttm_reference(x, v, 1), atol=1e-12)


class TestMultiTtm:
    def test_order_invariance(self, rng):
        x = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((2, s)) for s in x.shape]
        a = multi_ttm(x, mats)
        b = multi_ttm(x, mats, order=[2, 0, 1])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_skip_mode(self, rng):
        x = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((2, s)) for s in x.shape]
        y = multi_ttm(x, mats, skip=1)
        assert y.shape == (2, 4, 2)

    def test_none_entries_skipped(self, rng):
        x = rng.standard_normal((3, 4))
        y = multi_ttm(x, [None, rng.standard_normal((2, 4))])
        assert y.shape == (3, 2)

    def test_transpose_direction(self, rng):
        x = rng.standard_normal((4, 5))
        us = [rng.standard_normal((4, 2)), rng.standard_normal((5, 3))]
        y = multi_ttm(x, us, transpose=True)
        np.testing.assert_allclose(y, us[0].T @ x @ us[1], atol=1e-12)

    def test_wrong_count(self, rng):
        with pytest.raises(ValueError, match="one matrix per mode"):
            multi_ttm(rng.standard_normal((3, 4)), [np.eye(3)])

    def test_bad_order(self, rng):
        x = rng.standard_normal((3, 4))
        mats = [np.eye(3), np.eye(4)]
        with pytest.raises(ValueError, match="permutation"):
            multi_ttm(x, mats, order=[0, 0])


class TestSubBlockShapes:
    """The three shapes of the ``(lead, I_n, trail)`` view the one kernel
    meets: a single dgemm (``lead == 1``), many skinny sub-blocks, a few
    wide ones."""

    @pytest.mark.parametrize("shape,mode", [
        ((1, 24, 40), 1),    # lead == 1: single-dgemm collapse
        ((2, 24, 40), 1),    # small lead: many skinny sub-blocks
        ((3, 4, 5, 64), 2),  # interior mode, many skinny blocks
        ((64, 24, 3), 1),    # few wide blocks
        ((64, 24), 1),       # last mode: one sub-block
    ])
    def test_matches_definition(self, rng, shape, mode):
        x = np.asfortranarray(rng.standard_normal(shape))
        v = rng.standard_normal((6, shape[mode]))
        y = ttm(x, v, mode)
        assert y.flags.f_contiguous
        np.testing.assert_allclose(y, ttm_reference(x, v, mode), atol=1e-12)

    def test_bit_identical_to_per_block_loop(self, rng):
        # The stacked matmul runs, from C, the very dgemm a Python loop
        # over the contiguous sub-blocks would run, so the bits match.
        x = np.asfortranarray(rng.standard_normal((2, 32, 128)))
        v = rng.standard_normal((5, 32))
        vt = np.ascontiguousarray(v.T)
        expected = np.empty((2, 5, 128), order="F")
        for b in range(128):
            expected[:, :, b] = x[:, :, b] @ vt
        assert ttm(x, v, 1).tobytes() == expected.tobytes()

    def test_transpose_direction(self, rng):
        x = rng.standard_normal((2, 16, 64))
        u = rng.standard_normal((16, 3))
        np.testing.assert_allclose(
            ttm(x, u, 1, transpose=True),
            ttm_reference(x, u, 1, transpose=True),
            atol=1e-12,
        )

    def test_read_only_fortran_input_not_copied_or_written(self, rng):
        # The distributed hot path hands the kernel read-only shm-backed
        # views; the kernel must neither write to nor copy them.
        x = np.asfortranarray(rng.standard_normal((2, 12, 48)))
        x.flags.writeable = False
        v = rng.standard_normal((4, 12))
        np.testing.assert_allclose(
            ttm(x, v, 1), ttm_reference(np.array(x), v, 1), atol=1e-12
        )
