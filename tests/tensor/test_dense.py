"""Unfolding/folding and Tensor wrapper tests (paper Sec. II-A layout)."""

import numpy as np
import pytest

from repro.tensor import Tensor, fold, unfold


class TestUnfold:
    def test_shape(self, rng):
        x = rng.standard_normal((3, 4, 5))
        assert unfold(x, 0).shape == (3, 20)
        assert unfold(x, 1).shape == (4, 15)
        assert unfold(x, 2).shape == (5, 12)

    def test_mode0_is_fortran_flatten(self, rng):
        # The paper's layout: the mode-1 unfolding of the stored tensor is
        # column-major, i.e. reshape of the Fortran buffer.
        x = np.asfortranarray(rng.standard_normal((3, 4, 5)))
        expected = x.reshape(3, 20, order="F")
        np.testing.assert_array_equal(unfold(x, 0), expected)

    def test_element_mapping(self, rng):
        # (i1, ..., iN) -> (i_n, sum_{k != n} i_k * prod_{m<k, m != n} I_m).
        x = rng.standard_normal((3, 4, 5, 2))
        mat = unfold(x, 2)
        strides = {0: 1, 1: 3, 3: 12}  # prod of earlier non-mode-2 dims
        for idx in [(0, 0, 0, 0), (2, 1, 3, 1), (1, 3, 4, 0), (2, 3, 4, 1)]:
            j = sum(idx[k] * strides[k] for k in strides)
            assert mat[idx[2], j] == x[idx]

    def test_negative_mode(self, rng):
        x = rng.standard_normal((3, 4, 5))
        np.testing.assert_array_equal(unfold(x, -1), unfold(x, 2))

    def test_invalid_mode(self, rng):
        with pytest.raises(ValueError):
            unfold(rng.standard_normal((2, 2)), 2)

    def test_vector_unfold(self):
        x = np.arange(4.0)
        np.testing.assert_array_equal(unfold(x, 0), x.reshape(4, 1))


class TestFold:
    def test_inverse_of_unfold_all_modes(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        for n in range(4):
            np.testing.assert_array_equal(fold(unfold(x, n), n, x.shape), x)

    def test_wrong_matrix_shape(self, rng):
        with pytest.raises(ValueError, match="does not match unfolding"):
            fold(rng.standard_normal((3, 5)), 0, (3, 4))

    def test_rejects_non_matrix(self, rng):
        with pytest.raises(ValueError, match="expects a matrix"):
            fold(rng.standard_normal((3, 4, 5)), 0, (3, 4, 5))


class TestTensorClass:
    def test_fortran_storage(self, rng):
        t = Tensor(rng.standard_normal((3, 4)))
        assert t.data.flags.f_contiguous

    def test_norm_matches_frobenius(self, rng):
        x = rng.standard_normal((4, 5, 6))
        assert Tensor(x).norm() == pytest.approx(np.linalg.norm(x.ravel()))

    def test_norm_equals_unfolding_frobenius(self, rng):
        # ||X|| = ||X_(1)||_F by definition.
        x = rng.standard_normal((4, 5, 6))
        t = Tensor(x)
        assert t.norm() == pytest.approx(np.linalg.norm(t.unfold(0)))

    def test_zeros_factory(self):
        t = Tensor.zeros((2, 3))
        assert t.shape == (2, 3)
        assert t.norm() == 0.0

    def test_arithmetic(self, rng):
        x = rng.standard_normal((3, 3))
        t = Tensor(x)
        assert (t - t).norm() == 0.0
        assert (t + t).allclose(2 * x)

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.float64(3.0))

    def test_array_protocol(self, rng):
        x = rng.standard_normal((2, 2))
        assert np.asarray(Tensor(x)).shape == (2, 2)

    def test_getitem(self, rng):
        x = rng.standard_normal((3, 4))
        assert Tensor(x)[1, 2] == x[1, 2]


class TestAsFContiguous:
    """Layout normalization for the blocked kernels: no copy — and no
    rewrapping — when the input already complies."""

    def test_identity_for_fortran_input(self):
        x = np.asfortranarray(np.arange(24.0).reshape(2, 3, 4))
        from repro.tensor import as_f_contiguous

        assert as_f_contiguous(x) is x

    def test_copies_c_ordered_input(self):
        from repro.tensor import as_f_contiguous

        x = np.ascontiguousarray(np.arange(24.0).reshape(2, 3, 4))
        y = as_f_contiguous(x)
        assert y.flags.f_contiguous
        assert not np.shares_memory(x, y)
        np.testing.assert_array_equal(x, y)

    def test_no_copy_for_shared_memory_backed_view(self):
        # Regression for the distributed receive path: an F-contiguous
        # read-only array whose base is a shared-memory segment must pass
        # through untouched — the zero-copy receive stays zero-copy.
        from multiprocessing import shared_memory

        from repro.tensor import as_f_contiguous

        shm = shared_memory.SharedMemory(create=True, size=24 * 8)
        try:
            arr = np.ndarray((2, 3, 4), dtype=np.float64, buffer=shm.buf,
                             order="F")
            arr[...] = np.arange(24.0).reshape(2, 3, 4)
            arr.flags.writeable = False
            out = as_f_contiguous(arr)
            assert out is arr
            assert np.shares_memory(out, arr)
            del arr, out
        finally:
            shm.close()
            shm.unlink()
