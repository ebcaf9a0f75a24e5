"""TuckerTensor object tests: reconstruction, subtensors, accounting."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TuckerTensor
from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid
from repro.tensor import multi_ttm, random_factor, random_tensor
from tests.conftest import spmd


def _random_tucker(shape=(6, 7, 8), ranks=(2, 3, 4), seed=0):
    core = random_tensor(ranks, seed=seed)
    factors = tuple(
        random_factor(s, r, seed=seed + n) for n, (s, r) in enumerate(zip(shape, ranks))
    )
    return TuckerTensor(core=core, factors=factors)


class TestConstruction:
    def test_shapes_and_ranks(self):
        t = _random_tucker()
        assert t.shape == (6, 7, 8)
        assert t.ranks == (2, 3, 4)
        assert t.order == 3

    def test_factor_count_mismatch(self):
        with pytest.raises(ValueError, match="factors"):
            TuckerTensor(core=np.zeros((2, 2)), factors=(np.zeros((4, 2)),))

    def test_factor_column_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            TuckerTensor(
                core=np.zeros((2, 3)),
                factors=(np.zeros((4, 2)), np.zeros((5, 2))),
            )

    def test_factor_must_be_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            TuckerTensor(core=np.zeros((2,)), factors=(np.zeros(2),))


class TestReconstruction:
    def test_matches_multi_ttm(self):
        t = _random_tucker()
        expected = multi_ttm(t.core, list(t.factors), transpose=False)
        np.testing.assert_allclose(t.reconstruct(), expected, atol=1e-12)

    def test_subtensor_matches_full(self):
        t = _random_tucker()
        full = t.reconstruct()
        sub = t.reconstruct_subtensor([slice(1, 4), None, slice(2, 6)])
        np.testing.assert_allclose(sub, full[1:4, :, 2:6], atol=1e-12)

    def test_subtensor_integer_index(self):
        t = _random_tucker()
        full = t.reconstruct()
        sub = t.reconstruct_subtensor([2, None, None])
        np.testing.assert_allclose(sub[0], full[2], atol=1e-12)

    def test_subtensor_negative_integer(self):
        t = _random_tucker()
        full = t.reconstruct()
        sub = t.reconstruct_subtensor([-1, None, None])
        np.testing.assert_allclose(sub[0], full[-1], atol=1e-12)

    def test_subtensor_fancy_index(self):
        t = _random_tucker()
        full = t.reconstruct()
        sub = t.reconstruct_subtensor([[0, 2, 5], None, None])
        np.testing.assert_allclose(sub, full[[0, 2, 5]], atol=1e-12)

    def test_subtensor_strided(self):
        t = _random_tucker()
        full = t.reconstruct()
        sub = t.reconstruct_subtensor([None, slice(0, None, 2), None])
        np.testing.assert_allclose(sub, full[:, ::2, :], atol=1e-12)

    def test_subtensor_wrong_count(self):
        with pytest.raises(ValueError, match="one index per mode"):
            _random_tucker().reconstruct_subtensor([None])

    def test_subtensor_empty_selection(self):
        with pytest.raises(ValueError, match="empty"):
            _random_tucker().reconstruct_subtensor([slice(0, 0), None, None])

    def test_subtensor_index_out_of_range(self):
        with pytest.raises(IndexError):
            _random_tucker().reconstruct_subtensor([99, None, None])


def _selection(draw, size):
    """One mode's selection: the whole mode, an index, a slice or a list."""
    kind = draw(st.sampled_from(["all", "int", "slice", "list"]))
    if kind == "all":
        return None, slice(None)
    if kind == "int":
        i = draw(st.integers(-size, size - 1))
        return i, slice(i % size, i % size + 1)
    if kind == "slice":
        start = draw(st.integers(0, size - 1))
        stop = draw(st.integers(start + 1, size))
        step = draw(st.integers(1, 3))
        return slice(start, stop, step), slice(start, stop, step)
    rows = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
    return rows, rows


def _largest_intermediate(call):
    """``call()`` and the size of the largest tensor any TTM it ran made."""
    ttm_module = importlib.import_module("repro.tensor.ttm")
    real, sizes = ttm_module.ttm, [0]

    def recording_ttm(x, v, mode, transpose=False):
        y = real(x, v, mode, transpose)
        sizes.append(y.size)
        return y

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ttm_module, "ttm", recording_ttm)
        out = call()
    return out, max(sizes)


@st.composite
def tuckers_and_selections(draw):
    n = draw(st.integers(2, 5))
    shape = [draw(st.integers(2, 9)) for _ in range(n)]
    ranks = [draw(st.integers(1, s)) for s in shape]
    picks = [_selection(draw, s) for s in shape]
    return shape, ranks, picks, draw(st.integers(0, 2**16))


@given(case=tuckers_and_selections())
@settings(max_examples=100, deadline=None)
def test_partial_reconstruction_never_forms_more_than_core_or_result(case):
    # Paper Sec. II-C: the cost scales with the subtensor.  The selections
    # shrink the working tensor before anything expands it, so no TTM in
    # the chain makes a tensor larger than the core or the subtensor.
    shape, ranks, picks, seed = case
    t = _random_tucker(tuple(shape), tuple(ranks), seed)
    sub, largest = _largest_intermediate(
        lambda: t.reconstruct_subtensor([p for p, _ in picks])
    )
    assert largest <= max(t.core.size, sub.size)
    want = t.reconstruct()
    for n, (_, rows) in enumerate(picks):
        want = np.take(want, np.arange(shape[n])[rows], axis=n)
    np.testing.assert_allclose(sub, want, rtol=0, atol=1e-12)


def _dist_subtensor(comm, x, ranks, picks):
    dt = DistTensor.from_global(CartGrid(comm, (2, 1, 1)), x)
    return dist_sthosvd(
        dt, ranks=ranks, compute_dtype="float64"
    ).reconstruct_subtensor(picks)


def test_dist_partial_reconstruction_never_forms_more_than_core_or_result():
    # The ranks' compression runs its TTMs through dist_ttm's own binding
    # of the kernel; only multi_ttm's chain is recorded.
    t = _random_tucker((9, 8, 10), (4, 3, 5), seed=3)
    x = t.reconstruct()
    picks = [None, [7, 0, 2], 4]
    subs, largest = _largest_intermediate(
        lambda: spmd(2, _dist_subtensor, x, t.ranks, picks, backend="thread")
    )
    assert largest <= max(t.core.size, 9 * 3 * 1)
    for sub in subs:
        np.testing.assert_allclose(
            sub, x[:, [7, 0, 2]][:, :, 4:5], rtol=0, atol=1e-12
        )


class TestNormsAndErrors:
    def test_core_norm_equals_reconstruction_norm(self):
        # Orthonormal factors preserve norms.
        t = _random_tucker()
        assert t.core_norm() == pytest.approx(
            np.linalg.norm(t.reconstruct().ravel())
        )

    def test_relative_error_zero_for_exact(self):
        t = _random_tucker()
        x = t.reconstruct()
        assert t.relative_error(x) < 1e-12

    def test_relative_error_shape_check(self):
        with pytest.raises(ValueError, match="does not match"):
            _random_tucker().relative_error(np.zeros((2, 2, 2)))

    def test_relative_error_zero_tensor(self):
        with pytest.raises(ValueError, match="zero tensor"):
            _random_tucker().relative_error(np.zeros((6, 7, 8)))


class TestCompressionAccounting:
    def test_storage_words(self):
        t = _random_tucker(shape=(6, 7, 8), ranks=(2, 3, 4))
        assert t.storage_words == 2 * 3 * 4 + 6 * 2 + 7 * 3 + 8 * 4

    def test_compression_ratio_formula(self):
        t = _random_tucker(shape=(6, 7, 8), ranks=(2, 3, 4))
        assert t.compression_ratio == pytest.approx(
            (6 * 7 * 8) / (24 + 12 + 21 + 32)
        )
