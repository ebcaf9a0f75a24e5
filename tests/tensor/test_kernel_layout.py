"""The three local kernels, against the definitions, on every layout.

``ttm``, ``gram`` and ``qr_r`` run on the buffer as it lies (paper Sec.
IV-C: the unfolding is logical), whatever that layout is.  The references
here do the opposite on purpose — they materialise the unfolding and
multiply or factorize it — so an agreement is an agreement with the
*definition* ``Y_(n) = V X_(n)``, ``S = X_(n) X_(n)^T`` and
``X_(n)^T = Q R``, not with a second copy of the kernel.
"""

import importlib
import importlib.machinery
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import sthosvd
from repro.distributed import DistTensor, dist_mode_svd, dist_sthosvd, dist_ttm
from repro.mpi import CartGrid, available_backends
from repro.tensor import fold, gram, low_rank_tensor, multi_ttm, qr_r, ttm, unfold
from repro.tensor.dense import PANEL_BYTES
from repro.tensor.qr import chunk_rows, full_triangle, spectrum_from_r
from repro.tensor.ttm import chain_order
from repro.util.seeding import rng_for
from tests.conftest import spmd

# The module, not the function ``repro.tensor`` exports under its name.
ttm_module = importlib.import_module("repro.tensor.ttm")

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


def assert_r_of(r, x, mode, dtype):
    """``r`` is the triangular factor of ``unfold(x, mode).T``: true shape,
    upper triangular, ``R^T R`` the Gram matrix, and LAPACK's own R up to
    row signs (to the accuracy the conditioning of ``x`` allows)."""
    mat = unfold(x.astype(np.float64), mode).T  # m x I_n
    m, n = mat.shape
    assert r.dtype == dtype
    assert r.shape == (min(m, n), n)
    np.testing.assert_array_equal(r, np.triu(r))
    eps = tolerance(dtype, 1)
    scale = max(float(np.abs(mat).max(initial=0.0)), 1.0) ** 2
    np.testing.assert_allclose(
        r.astype(np.float64).T @ r.astype(np.float64), mat.T @ mat,
        rtol=0, atol=100 * eps * max(m, 1) * scale,
    )
    if m == 0:
        return
    ref = np.linalg.qr(mat, mode="r")
    lead = ref[:, : ref.shape[0]]  # the square part R's uniqueness rests on
    cond = np.linalg.cond(lead) if np.all(np.diag(lead)) else np.inf
    if cond * eps < 1e-3:
        np.testing.assert_allclose(
            np.abs(r), np.abs(ref), rtol=0,
            atol=100 * eps * cond * max(float(np.abs(ref).max()), 1.0),
        )


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, layout=layouts)
@settings(max_examples=150, deadline=None)
def test_qr_matches_definition_on_every_layout(shape, seed, dtype, layout):
    x = tensor_in(layout, shape, dtype, seed)
    for mode in range(len(shape)):
        assert_r_of(qr_r(x, mode), x, mode, dtype)


@given(
    shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes,
    rows=st.integers(1, 7),
)
@settings(max_examples=60, deadline=None)
def test_qr_bits_depend_on_the_unfolding_not_the_layout(
    shape, seed, dtype, rows
):
    # Chunk boundaries are row counts of the transposed unfolding and the
    # rows of a chunk are always in unfolding order, so the tensor where it
    # lies, a strided copy of it and the unfolding itself as a matrix (in
    # either layout) feed LAPACK the same matrices.  A tiny chunk makes
    # these small tensors span many of them, with sub-blocks cut at either
    # end.  (A C-ordered *tensor* is the reversed-mode tensor: the same
    # rows in another order, equal only up to rounding.)
    import repro.tensor.qr as qr_module

    x = tensor_in("F", shape, dtype, seed)
    padded = np.zeros(tuple(2 * s for s in shape), dtype=dtype)
    strided = padded[tuple(slice(None, None, 2) for _ in shape)]
    strided[...] = x
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            qr_module, "chunk_rows", lambda n, itemsize: max(n, rows)
        )
        for mode in range(len(shape)):
            want = qr_r(x, mode)
            assert_r_of(want, x, mode, dtype)
            mat = unfold(x, mode).T
            assert qr_r(strided, mode).tobytes() == want.tobytes()
            for same in (np.asfortranarray(mat), np.ascontiguousarray(mat)):
                assert qr_r(same, 1).tobytes() == want.tobytes()


def test_lapack_routines_are_resolved_once_on_first_use():
    # A launcher resolves them in the parent before forking ranks (the
    # CLI's `--method svd`); every later `qr_r` reuses the same pair, and
    # it is the pair SciPy's own lookup hands out, from the same wrapper.
    from scipy.linalg import get_lapack_funcs

    import repro.tensor.qr as qr_module

    routines = qr_module.lapack_qr()
    assert qr_module.lapack_qr() is routines
    for dtype, prefix in ((np.float32, "s"), (np.float64, "d")):
        resolved = routines[np.dtype(dtype)]
        again = get_lapack_funcs(("geqrt", "tpqrt"), dtype=dtype)
        assert [f.typecode for f in again] == [prefix, prefix]
        assert all(f is g for f, g in zip(resolved, again))


def test_missing_lapack_wrapper_names_the_directory_searched(monkeypatch):
    import repro.tensor.qr as qr_module

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".none"])
    qr_module.lapack_qr.cache_clear()
    with pytest.raises(ImportError, match=r"_flapack not found in .*linalg"):
        qr_module.lapack_qr()
    qr_module.lapack_qr.cache_clear()


class TestQrShapesAndDegenerateInputs:
    def test_fewer_columns_than_rows_keeps_the_true_shape(self, rng):
        x = np.asfortranarray(rng.standard_normal((3, 9, 2)))
        r = qr_r(x, 1)  # the unfolding is 9 x 6
        assert r.shape == (6, 9)
        assert_r_of(r, x, 1, np.float64)
        assert full_triangle(r).shape == (9, 9)
        assert not full_triangle(r)[6:].any()

    def test_empty_column_share(self):
        for dtype in (np.float64, np.float32):
            r = qr_r(np.zeros((4, 0, 3), dtype=dtype, order="F"), 0)
            assert r.shape == (0, 4) and r.dtype == dtype
        assert not full_triangle(qr_r(np.zeros((4, 0)), 0)).any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_zero_tensor(self, dtype):
        x = np.zeros((5, 4, 3), dtype=dtype, order="F")
        for mode in range(3):
            r = qr_r(x, mode)
            assert r.shape == (x.shape[mode],) * 2 and not r.any()
            eig = spectrum_from_r(full_triangle(r))
            assert not eig.values.any()
            np.testing.assert_allclose(
                eig.vectors.T @ eig.vectors, np.eye(x.shape[mode]), atol=1e-12
            )

    def test_rank_deficient_tensor(self):
        x = low_rank_tensor((12, 10, 9), (2, 3, 2), seed=5, noise=0.0)
        for mode, rank in enumerate((2, 3, 2)):
            r = qr_r(x, mode)
            np.testing.assert_allclose(r.T @ r, gram(x, mode), atol=1e-9)
            values = spectrum_from_r(full_triangle(r)).values
            assert values[rank - 1] > 1e-6 * values[0]
            assert values[rank] < 1e-20 * values[0]

    def test_many_chunks_of_every_kind(self, rng):
        # Sub-blocks shorter than, equal to and longer than a chunk, with
        # ragged ends: the head / body / tail copies all run.
        for shape, mode in [
            ((7, 6, 4100), 1), ((9000, 5, 3), 1), ((5, 70000), 0),
            ((70000, 5), 1), ((11, 6, 13, 197), 2),
        ]:
            x = np.asfortranarray(rng.standard_normal(shape))
            n = shape[mode]
            assert x.size // n > 2 * chunk_rows(n, 8)
            assert_r_of(qr_r(x, mode), x, mode, np.float64)

    def test_read_only_input_is_left_alone(self, rng):
        x = np.asfortranarray(rng.standard_normal((6, 5, 4)))
        before = x.copy()
        x.flags.writeable = False
        for mode in range(3):
            qr_r(x, mode)
        np.testing.assert_array_equal(x, before)


def test_graded_spectrum_survives_qr_and_not_the_gram_matrix():
    # Condition 1e12: forming X_(n) X_(n)^T squares it past 1/eps, so the
    # Gram path's small singular values are noise at sqrt(eps) ~ 1e-8 of
    # the largest; the triangle carries them at working precision.  Both
    # errors are measured against the largest singular value.
    rng = np.random.default_rng(8)
    n, m = 12, 6000
    sing = np.logspace(0, -12, n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((m, n)))
    x = fold((u * sing) @ v.T, 1, (60, n, 100))
    via_qr = np.sqrt(spectrum_from_r(full_triangle(qr_r(x, 1))).values)
    via_gram = np.sqrt(
        np.clip(np.linalg.eigvalsh(gram(x, 1))[::-1], 0.0, None)
    )
    assert np.abs(via_qr - sing).max() < 1e-10
    assert np.abs(via_gram - sing).max() > 1e-10
    # ... and, entry by entry, everything above eps * cond stays relative.
    keep = sing > 1e-5
    np.testing.assert_allclose(via_qr[keep], sing[keep], rtol=1e-10)


def test_c_order_is_the_reversed_fortran_tensor(rng):
    # The identity the C-ordered path rests on, bit for bit: both sides
    # hand BLAS the same buffer under the same view.
    x = np.ascontiguousarray(rng.standard_normal((4, 5, 6, 3)))
    for mode in range(x.ndim):
        v = rng.standard_normal((2, x.shape[mode]))
        mirrored = x.ndim - 1 - mode
        assert ttm(x, v, mode).tobytes() == ttm(x.T, v, mirrored).T.tobytes()
        assert gram(x, mode).tobytes() == gram(x.T, mirrored).tobytes()
        assert qr_r(x, mode).tobytes() == qr_r(x.T, mirrored).tobytes()


@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    seed=st.integers(0, 2**16), new_dim=st.integers(1, 7),
    panel_cols=st.integers(1, 5), transpose=st.booleans(), dtype=dtypes,
    layout=layouts,
)
@settings(max_examples=150, deadline=None)
def test_first_mode_ttm_in_many_panels_matches_definition(
    shape, seed, new_dim, panel_cols, transpose, dtype, layout
):
    # The panel shrunk to a few columns, so the (I_n, trail) view spans
    # many panels and usually ends in a ragged one.  The kernel's first
    # mode is the tensor's mode 0, or the last mode of a C-ordered tensor
    # (the reversed view's first).
    x = tensor_in(layout, shape, dtype, seed)
    mode = len(shape) - 1 if layout == "C" else 0
    v = matrix_in("plain", new_dim, shape[mode], seed)
    wider = max(shape[mode], new_dim) * np.dtype(dtype).itemsize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ttm_module, "PANEL_BYTES", panel_cols * wider)
        y = ttm(x, v.T if transpose else v, mode, transpose=transpose)
    assert y.dtype == dtype
    assert_owned_in_layout_of(y, x)
    np.testing.assert_allclose(
        y, ttm_reference(x.astype(np.float64), v, mode),
        rtol=0, atol=25 * tolerance(dtype, shape[mode]),
    )


def test_first_mode_panels_never_hand_blas_a_single_column(rng):
    # NumPy sends a one-column product to gemv, whose sums associate
    # differently; the walk never makes one (a width of 1 becomes 2, and
    # 130 columns in panels of 3 end in a panel of 4, not 43 x 3 + 1), so
    # on this view every width returns the bits of one dgemm.
    x = np.asfortranarray(rng.standard_normal((7, 10, 13)))
    v = rng.standard_normal((5, 7))
    whole = np.empty((5, 10, 13), order="F")
    np.matmul(np.ascontiguousarray(v.T).T, np.reshape(x, (7, 130), order="F"),
              out=np.reshape(whole, (5, 130), order="F"))
    for cols in (1, 2, 3, 43, 129, 200):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ttm_module, "PANEL_BYTES", cols * 7 * 8)
            assert ttm(x, v, 0).tobytes() == whole.tobytes()


@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    seed=st.integers(0, 2**16), new_dim=st.integers(1, 7),
    panel_rows=st.integers(1, 5), transpose=st.booleans(), dtype=dtypes,
    layout=layouts,
)
@settings(max_examples=150, deadline=None)
def test_row_panels_of_tall_sub_blocks_match_definition(
    shape, seed, new_dim, panel_rows, transpose, dtype, layout
):
    # The panel shrunk to a few rows, so the interior and last-mode
    # sub-blocks of the (lead, I_n, trail) view span many row panels and
    # usually end in a ragged one.  A C-ordered tensor reaches them through
    # the reversed view, its modes before the last.
    x = tensor_in(layout, shape, dtype, seed)
    for mode in range(len(shape)):
        v = matrix_in("plain", new_dim, shape[mode], seed)
        wider = max(shape[mode], new_dim) * np.dtype(dtype).itemsize
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ttm_module, "PANEL_BYTES", panel_rows * wider)
            y = ttm(x, v.T if transpose else v, mode, transpose=transpose)
        assert y.dtype == dtype
        assert_owned_in_layout_of(y, x)
        np.testing.assert_allclose(
            y, ttm_reference(x.astype(np.float64), v, mode),
            rtol=0, atol=25 * tolerance(dtype, shape[mode]),
        )


@pytest.mark.parametrize("mode", [1, 2])
def test_row_panels_never_hand_blas_a_single_row(rng, mode):
    # The row twin of the column rule: a height of 1 becomes 2, and a
    # lone last row joins the panel before it, so on this view every
    # height returns the bits of one stacked matmul over the sub-blocks.
    # I_n (13 or 7) is wider than the 5 result rows, so it sets the panel.
    x = np.asfortranarray(rng.standard_normal((10, 13, 7)))
    rows = x.shape[mode]
    lead = int(np.prod(x.shape[:mode]))
    v = rng.standard_normal((5, rows))
    shape = x.shape[:mode] + (5,) + x.shape[mode + 1:]
    whole = np.empty(shape, order="F")
    np.matmul(np.reshape(x, (lead, rows, -1), order="F").transpose(2, 0, 1),
              np.ascontiguousarray(v.T),
              out=np.reshape(whole, (lead, 5, -1), order="F").transpose(2, 0, 1))
    for height in (1, 2, 3, lead - 1, lead + 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ttm_module, "PANEL_BYTES", height * rows * 8)
            assert ttm(x, v, mode).tobytes() == whole.tobytes()


def chain_flops(steps, order):
    """Flops of the TTM chain ``steps[m] = (a_m, b_m)`` run in ``order``."""
    sizes, total = [a for a, _ in steps], 0
    for m in order:
        total += 2 * steps[m][1] * int(np.prod(sizes))
        sizes[m] = steps[m][1]
    return total


extents = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=5
)


@given(steps=extents)
@settings(max_examples=300, deadline=None)
def test_default_chain_order_is_flop_minimal(steps):
    order = chain_order((m, a, b) for m, (a, b) in enumerate(steps))
    assert sorted(order) == list(range(len(steps)))
    best = min(
        chain_flops(steps, p) for p in permutations(range(len(steps)))
    )
    assert chain_flops(steps, order) == best


@given(
    steps=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**16), transpose=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_multi_ttm_runs_the_chain_order_and_any_order_agrees(
    steps, seed, transpose
):
    rng = rng_for(seed, "chain", tuple(steps))
    x = np.asfortranarray(rng.standard_normal([a for a, _ in steps]))
    mats = [rng.standard_normal((b, a)) for a, b in steps]
    given_mats = [m.T for m in mats] if transpose else mats
    ran = []

    def recording_ttm(y, v, mode, transpose=False):
        ran.append(mode)
        return ttm(y, v, mode, transpose)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ttm_module, "ttm", recording_ttm)
        want = multi_ttm(x, given_mats, transpose=transpose)
    assert ran == chain_order((m, a, b) for m, (a, b) in enumerate(steps))
    scale = max(1.0, float(np.abs(want).max()))
    for order in permutations(range(len(steps))):
        np.testing.assert_allclose(
            multi_ttm(x, given_mats, transpose=transpose, order=order), want,
            rtol=0, atol=1e-12 * scale,
        )


class TestNoTensorSizedTemporary:
    """No kernel may allocate anything that scales with the tensor beyond
    its result: the budget is 1 MB of slack plus one panel (the Gram panel
    and the QR chunk are that size)."""

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

    def test_ttm_first_mode_expanding(self):
        # The reconstruction direction: few rows in, many out, every panel
        # written straight into the result.
        x = np.asfortranarray(
            np.random.default_rng(5).standard_normal((6, 64, 512))
        )
        v = np.random.default_rng(6).standard_normal((36, 6))
        y, peak = self.peak_of(lambda: ttm(x, v, 0))
        assert y.shape == (36, 64, 512)
        assert peak - y.nbytes < self.BUDGET, (peak, y.nbytes)

    def test_ttm_last_mode_expanding(self):
        # Reconstruction's last step: one sub-block of lead rows, many
        # panels tall, each row panel written straight into the result.
        x = np.asfortranarray(
            np.random.default_rng(5).standard_normal((512, 64, 6))
        )
        v = np.random.default_rng(6).standard_normal((36, 6))
        y, peak = self.peak_of(lambda: ttm(x, v, 2))
        assert y.shape == (512, 64, 36)
        assert peak - y.nbytes < self.BUDGET, (peak, y.nbytes)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_gram(self, big, mode):
        s, peak = self.peak_of(lambda: gram(big, mode))
        assert peak - s.nbytes < self.BUDGET, (peak, s.nbytes)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_qr(self, big, mode):
        r, peak = self.peak_of(lambda: qr_r(big, mode))
        assert peak - r.nbytes < self.BUDGET, (peak, r.nbytes)

    def test_c_ordered_input_is_not_normalised(self, big):
        x = big.T  # C-ordered view of the same 16 MiB
        assert x.flags.c_contiguous and not x.flags.f_contiguous
        u = np.random.default_rng(4).standard_normal((self.SHAPE[1], 8))
        y, peak = self.peak_of(lambda: ttm(x, u, 1, transpose=True))
        assert peak - y.nbytes < self.BUDGET
        s, peak = self.peak_of(lambda: gram(x, 1))
        assert peak - s.nbytes < self.BUDGET
        r, peak = self.peak_of(lambda: qr_r(x, 1))
        assert peak - r.nbytes < self.BUDGET

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_dist_mode_svd_on_an_undivided_mode(self, big, mode, monkeypatch):
        # P_n == 1: the kernel runs on the block where it lies — no
        # unfolding, no slab, nothing tensor-sized.
        def no_unfolding(self, mode):
            raise AssertionError("dist_mode_svd built the local unfolding")

        monkeypatch.setattr(DistTensor, "local_unfolding", no_unfolding)

        def prog(comm):
            dt = DistTensor(CartGrid(comm, (1, 1, 1)), big.shape, big)
            assert dt.local is big
            (u, eig), peak = self.peak_of(
                lambda: dist_mode_svd(dt, mode, rank=8)
            )
            return u.shape, peak

        shape, peak = spmd(1, prog, backend="thread")[0]
        assert shape == (self.SHAPE[mode], 8)
        assert peak < self.BUDGET, peak


def _dist_on_one_rank(comm, x, kwargs):
    dt = DistTensor.from_global(CartGrid(comm, (1,) * x.ndim), x)
    result = dist_sthosvd(dt, **kwargs)
    tucker = result.to_tucker()
    return tucker.core, tucker.factors, result.eigenvalues


@pytest.mark.parametrize("backend", sorted(available_backends()))
@pytest.mark.parametrize("method", ["gram", "svd"])
@pytest.mark.parametrize(
    "kwargs", [{"tol": 1e-2}, {"ranks": (3, 4, 2, 3)}], ids=["tol", "ranks"]
)
def test_sequential_and_one_rank_distributed_agree_bytewise(
    backend, method, kwargs
):
    # Both drivers run the same kernels on the same buffer, and every
    # step between them (eigensolve or small SVD, rank choice, the size-1
    # collectives) is the same arithmetic on the same bits: nothing is
    # left to differ, on either factor path.
    x = low_rank_tensor((9, 8, 6, 7), (3, 4, 2, 3), seed=11, noise=1e-3)
    kwargs = dict(kwargs, method=method)
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


def _ttm_on_undivided_modes(comm, x, strategy):
    """``dist_ttm`` in the two modes of a ``1 x 2 x 1`` grid with
    ``P_n == 1``: what came back, and what it cost."""
    dt = DistTensor.from_global(CartGrid(comm, (1, 2, 1)), x)
    out = []
    for mode, k in ((0, 3), (2, 2)):
        v = rng_for(7, "v", mode).standard_normal((k, x.shape[mode]))
        row = comm.ledger.rank_costs(comm.world_rank)  # live counters
        before = (row.flops, row.words_sent, row.messages)
        z = dist_ttm(dt, v, mode, k, strategy=strategy)
        spent = tuple(
            now - was
            for now, was in zip((row.flops, row.words_sent, row.messages), before)
        )
        out.append((
            z.local.base is None and z.local.flags.writeable,
            z.local.flags.f_contiguous,
            ttm(dt.local, v, mode).tobytes() == z.local.tobytes(),
            spent,
        ))
    return out


@pytest.mark.parametrize("backend", sorted(available_backends()))
@pytest.mark.parametrize("strategy", ["auto", "blocked", "reduce_scatter"])
def test_dist_ttm_on_an_undivided_mode_is_the_local_product(backend, strategy):
    # A one-member reduction moves nothing, so the local product is the
    # block: owned, Fortran-ordered, the same bits whatever the strategy,
    # and charged exactly what the reductions it replaces charged —
    # 2 K |local| flops, no words, no messages.
    x = rng_for(7, "ttm-pn1").standard_normal((6, 8, 4))
    res = spmd(2, _ttm_on_undivided_modes, x, strategy, backend=backend)
    for per_rank in res.values:
        for (owned, f_ordered, same, spent), k in zip(per_rank, (3, 2)):
            assert owned and f_ordered and same
            assert spent == (2 * k * (6 * 4 * 4), 0, 0)
