"""The one local kernel pair, against the definitions, on every layout.

``ttm`` and ``gram`` run on the buffer as it lies (paper Sec. IV-C: the
unfolding is logical), whatever that layout is.  The references here do
the opposite on purpose — they materialise the unfolding and multiply it —
so an agreement is an agreement with the *definition* ``Y_(n) = V X_(n)``
and ``S = X_(n) X_(n)^T``, not with a second copy of the kernel.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import sthosvd
from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, available_backends
from repro.tensor import fold, gram, low_rank_tensor, ttm, unfold
from repro.tensor.gram import PANEL_BYTES
from repro.util.seeding import rng_for
from tests.conftest import spmd

shapes = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple)
dtypes = st.sampled_from([np.float64, np.float32])
layouts = st.sampled_from(["F", "C", "sliced", "readonly"])
matrix_layouts = st.sampled_from(["plain", "strided", "row_sliced"])


def ttm_reference(x, v, mode):
    shape = x.shape[:mode] + (v.shape[0],) + x.shape[mode + 1 :]
    return fold(v @ unfold(x, mode), mode, shape)


def gram_reference(x, mode):
    mat = unfold(x, mode)
    return mat @ mat.T


def tensor_in(layout, shape, dtype, seed):
    """A tensor of ``shape`` holding the same values in the asked layout."""
    rng = rng_for(seed, "layout", shape)
    if layout == "sliced":
        # Every other entry of every mode of a larger buffer: no
        # contiguous layout, the one case the kernels copy.
        big = rng.standard_normal(tuple(2 * s for s in shape)).astype(dtype)
        return big[tuple(slice(None, None, 2) for _ in shape)]
    x = rng.standard_normal(shape).astype(dtype)
    if layout == "C":
        return np.ascontiguousarray(x)
    x = np.asfortranarray(x)
    if layout == "readonly":
        x.flags.writeable = False
    return x


def matrix_in(layout, rows, cols, seed):
    rng = rng_for(seed, "matrix", rows, cols)
    if layout == "strided":
        return rng.standard_normal((2 * rows, 2 * cols))[::2, ::2]
    if layout == "row_sliced":
        return rng.standard_normal((rows + 2, cols))[1:-1]
    return rng.standard_normal((rows, cols))


def assert_owned_in_layout_of(result, x):
    """Owned, writable, not aliasing ``x``; C-ordered only when ``x`` is."""
    assert result.base is None and result.flags.writeable
    assert not np.shares_memory(result, x)
    if x.flags.c_contiguous and not x.flags.f_contiguous:
        assert result.flags.c_contiguous
    else:
        assert result.flags.f_contiguous


def tolerance(dtype, terms):
    return (1e-13 if dtype == np.float64 else 1e-5) * max(terms, 1)


@given(
    shape=shapes, seed=st.integers(0, 2**16), new_dim=st.integers(1, 6),
    transpose=st.booleans(), dtype=dtypes, layout=layouts,
    matrix_layout=matrix_layouts,
)
@settings(max_examples=150, deadline=None)
def test_ttm_matches_definition_on_every_layout(
    shape, seed, new_dim, transpose, dtype, layout, matrix_layout
):
    x = tensor_in(layout, shape, dtype, seed)
    for mode in range(len(shape)):
        v = matrix_in(matrix_layout, new_dim, shape[mode], seed)
        given_matrix = v.T if transpose else v  # I_n x K when transposed
        y = ttm(x, given_matrix, mode, transpose=transpose)
        assert y.dtype == dtype
        assert_owned_in_layout_of(y, x)
        np.testing.assert_allclose(
            y, ttm_reference(x.astype(np.float64), v, mode),
            rtol=0, atol=25 * tolerance(dtype, shape[mode]),
        )


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, layout=layouts)
@settings(max_examples=150, deadline=None)
def test_gram_matches_definition_on_every_layout(shape, seed, dtype, layout):
    x = tensor_in(layout, shape, dtype, seed)
    for mode in range(len(shape)):
        s = gram(x, mode)
        assert s.dtype == dtype
        assert s.shape == (shape[mode], shape[mode])
        np.testing.assert_array_equal(s, s.T)
        np.testing.assert_allclose(
            s, gram_reference(x.astype(np.float64), mode),
            rtol=0, atol=25 * tolerance(dtype, x.size // shape[mode]),
        )


def test_c_order_is_the_reversed_fortran_tensor(rng):
    # The identity the C-ordered path rests on, bit for bit: both sides
    # hand BLAS the same buffer under the same view.
    x = np.ascontiguousarray(rng.standard_normal((4, 5, 6, 3)))
    for mode in range(x.ndim):
        v = rng.standard_normal((2, x.shape[mode]))
        mirrored = x.ndim - 1 - mode
        assert ttm(x, v, mode).tobytes() == ttm(x.T, v, mirrored).T.tobytes()
        assert gram(x, mode).tobytes() == gram(x.T, mirrored).tobytes()


class TestNoTensorSizedTemporary:
    """Neither kernel may allocate anything that scales with the tensor
    beyond its result: the budget is 1 MB of slack plus the Gram panel."""

    SHAPE = (128, 128, 128)  # 16 MiB of float64
    BUDGET = (1 << 20) + PANEL_BYTES

    @pytest.fixture(scope="class")
    def big(self):
        x = np.asfortranarray(
            np.random.default_rng(3).standard_normal(self.SHAPE)
        )
        assert x.nbytes >= 16 << 20
        return x

    @staticmethod
    def peak_of(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_ttm(self, big, mode):
        u = np.random.default_rng(4).standard_normal((self.SHAPE[mode], 8))
        y, peak = self.peak_of(lambda: ttm(big, u, mode, transpose=True))
        assert peak - y.nbytes < self.BUDGET, (peak, y.nbytes)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_gram(self, big, mode):
        s, peak = self.peak_of(lambda: gram(big, mode))
        assert peak - s.nbytes < self.BUDGET, (peak, s.nbytes)

    def test_c_ordered_input_is_not_normalised(self, big):
        x = big.T  # C-ordered view of the same 16 MiB
        assert x.flags.c_contiguous and not x.flags.f_contiguous
        u = np.random.default_rng(4).standard_normal((self.SHAPE[1], 8))
        y, peak = self.peak_of(lambda: ttm(x, u, 1, transpose=True))
        assert peak - y.nbytes < self.BUDGET
        s, peak = self.peak_of(lambda: gram(x, 1))
        assert peak - s.nbytes < self.BUDGET


def _dist_on_one_rank(comm, x, kwargs):
    dt = DistTensor.from_global(CartGrid(comm, (1,) * x.ndim), x)
    result = dist_sthosvd(dt, method="gram", **kwargs)
    tucker = result.to_tucker()
    return tucker.core, tucker.factors, result.eigenvalues


@pytest.mark.parametrize("backend", sorted(available_backends()))
@pytest.mark.parametrize(
    "kwargs", [{"tol": 1e-2}, {"ranks": (3, 4, 2, 3)}], ids=["tol", "ranks"]
)
def test_sequential_and_one_rank_distributed_agree_bytewise(backend, kwargs):
    # Both drivers run the same two kernels on the same buffer, and every
    # step between them (eigensolve, rank choice, the size-1 collectives)
    # is the same arithmetic on the same bits: nothing is left to differ.
    x = low_rank_tensor((9, 8, 6, 7), (3, 4, 2, 3), seed=11, noise=1e-3)
    seq = sthosvd(x, **kwargs)
    core, factors, eigenvalues = spmd(
        1, _dist_on_one_rank, x, kwargs, backend=backend
    )[0]
    assert core.shape == seq.decomposition.core.shape
    assert core.tobytes() == seq.decomposition.core.tobytes()
    for got, want in zip(factors, seq.decomposition.factors):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(eigenvalues, seq.eigenvalues):
        assert np.asarray(got).tobytes() == want.tobytes()
