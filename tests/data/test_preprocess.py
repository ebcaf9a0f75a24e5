"""Center-and-scale normalization tests (paper Sec. VII-A)."""

import numpy as np
import pytest

from repro.data import center_and_scale, invert_scaling
from repro.data.preprocess import SIGMA_FLOOR


class TestCenterAndScale:
    def test_slices_become_standard(self, rng):
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 9, 4))
        y, info = center_and_scale(x, species_mode=2)
        for s in range(4):
            assert y[:, :, s].mean() == pytest.approx(0.0, abs=1e-12)
            assert y[:, :, s].std() == pytest.approx(1.0)

    def test_constant_slice_only_centered(self, rng):
        x = rng.standard_normal((6, 5, 3))
        x[:, :, 1] = 7.0  # constant slice: sigma < floor
        y, info = center_and_scale(x, species_mode=2)
        np.testing.assert_allclose(y[:, :, 1], 0.0, atol=1e-12)
        assert info.stds[1] == 1.0  # divisor skipped

    def test_input_not_modified(self, rng):
        x = rng.standard_normal((4, 5, 3))
        original = x.copy()
        center_and_scale(x, species_mode=1)
        np.testing.assert_array_equal(x, original)

    def test_negative_mode(self, rng):
        x = rng.standard_normal((4, 5, 3))
        y1, _ = center_and_scale(x, species_mode=-1)
        y2, _ = center_and_scale(x, species_mode=2)
        np.testing.assert_array_equal(y1, y2)

    def test_sigma_floor_constant(self):
        assert SIGMA_FLOOR == 1e-10


class TestInvertScaling:
    def test_roundtrip(self, rng):
        x = rng.normal(loc=-2.0, scale=10.0, size=(6, 7, 5))
        y, info = center_and_scale(x, species_mode=2)
        back = invert_scaling(y, info)
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_roundtrip_with_constant_slice(self, rng):
        x = rng.standard_normal((5, 4, 3))
        x[:, :, 0] = 2.5
        y, info = center_and_scale(x, species_mode=2)
        back = invert_scaling(y, info)
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_roundtrip_middle_mode(self, rng):
        x = rng.normal(scale=4.0, size=(5, 6, 7))
        y, info = center_and_scale(x, species_mode=1)
        np.testing.assert_allclose(invert_scaling(y, info), x, atol=1e-10)

    def test_slice_count_mismatch(self, rng):
        x = rng.standard_normal((5, 4, 3))
        _, info = center_and_scale(x, species_mode=2)
        wrong = rng.standard_normal((5, 4, 6))
        with pytest.raises(ValueError, match="slices"):
            invert_scaling(wrong, info)

    def test_reconstruction_error_transfers(self, rng):
        # Denormalizing a compressed approximation must preserve per-slice
        # relative errors scaled by each slice's sigma.
        x = rng.normal(scale=2.0, size=(6, 6, 3))
        y, info = center_and_scale(x, species_mode=2)
        y_approx = y + 1e-3 * rng.standard_normal(y.shape)
        back = invert_scaling(y_approx, info)
        err = np.abs(back - x)
        for s in range(3):
            assert err[:, :, s].max() <= 1e-2 * info.stds[s]


def _layouts(x):
    """The same values as F-ordered, C-ordered, strided and read-only."""
    frozen = np.asfortranarray(x)
    frozen.flags.writeable = False
    return {
        "fortran": np.asfortranarray(x),
        "c": np.ascontiguousarray(x),
        "strided": np.repeat(x, 2, axis=0)[::2],
        "read-only": frozen,
    }


class TestOneOwnedFortranResult:
    """Both directions allocate exactly the result: F-ordered, owned,
    never an alias of the input, and what the textbook expressions give
    on that input (bit-for-bit for ``invert_scaling``; to 1e-13 for
    ``center_and_scale``, whose statistics kernel sums the centred
    squares in its own order, without the textbook's temporary)."""

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["fortran", "c", "strided", "read-only"])
    def test_center_and_scale(self, rng, name, mode):
        x = _layouts(rng.normal(3.0, 2.0, size=(6, 5, 4, 3)))[name]
        x_before = x.copy()
        axes = tuple(a for a in range(x.ndim) if a != mode)
        means = x.mean(axis=axes, keepdims=True)
        stds = x.std(axis=axes, keepdims=True)
        y, info = center_and_scale(x, species_mode=mode)
        assert y.flags.f_contiguous and y.flags.owndata and y.flags.writeable
        assert not np.shares_memory(y, x)
        np.testing.assert_allclose(
            y, (x - means) / stds, rtol=1e-13, atol=1e-13
        )
        np.testing.assert_allclose(info.means, means.squeeze(), rtol=1e-13)
        np.testing.assert_allclose(info.stds, stds.squeeze(), rtol=1e-13)
        np.testing.assert_array_equal(x, x_before)

    @pytest.mark.parametrize("name", ["fortran", "c", "strided", "read-only"])
    def test_invert_scaling(self, rng, name):
        x = rng.normal(3.0, 2.0, size=(6, 5, 4, 3))
        y, info = center_and_scale(x, species_mode=2)
        y = _layouts(y)[name]
        y_before = y.copy()
        back = invert_scaling(y, info)
        assert back.flags.f_contiguous and back.flags.owndata
        assert not np.shares_memory(back, y)
        expand = (1, 1, -1, 1)
        np.testing.assert_array_equal(
            back, y * info.stds.reshape(expand) + info.means.reshape(expand)
        )
        np.testing.assert_array_equal(y, y_before)

    def test_float32_stays_float32(self, rng):
        x = rng.standard_normal((5, 4, 3)).astype(np.float32)
        y, info = center_and_scale(x, species_mode=1)
        assert y.dtype == np.float32 and y.flags.f_contiguous
        assert invert_scaling(y, info).dtype == np.float32

