"""Property-based tests (hypothesis) for the tensor kernels.

These check the algebraic identities of paper Sec. II-A on arbitrary small
shapes rather than hand-picked ones: unfolding is a bijection, TTM respects
its matricized definition and commutes across distinct modes, orthonormal
projections never increase norms, and Gram matrices are PSD with trace
``||X||^2``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tensor import fold, gram, multi_ttm, ttm, unfold
from repro.util.seeding import rng_for

# Small orders/dims keep each example fast; hypothesis explores the space.
shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)


def _tensor_for(shape, seed):
    return rng_for(seed, "prop", shape).standard_normal(shape)


@given(shape=shapes, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_unfold_fold_bijection(shape, seed):
    x = _tensor_for(shape, seed)
    for mode in range(len(shape)):
        np.testing.assert_array_equal(fold(unfold(x, mode), mode, shape), x)


@given(
    shape=shapes,
    seed=st.integers(0, 2**16),
    mode=st.integers(0, 3),
    new_dim=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_ttm_matches_matricized_definition(shape, seed, mode, new_dim):
    mode = mode % len(shape)
    x = _tensor_for(shape, seed)
    v = rng_for(seed, "mat", shape, mode).standard_normal((new_dim, shape[mode]))
    y = ttm(x, v, mode)
    np.testing.assert_allclose(unfold(y, mode), v @ unfold(x, mode), atol=1e-10)


@given(
    shape=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_ttm_commutes_across_modes(shape, seed):
    x = _tensor_for(shape, seed)
    rng = rng_for(seed, "comm", shape)
    m, n = 0, len(shape) - 1
    w = rng.standard_normal((2, shape[m]))
    v = rng.standard_normal((3, shape[n]))
    a = ttm(ttm(x, w, m), v, n)
    b = ttm(ttm(x, v, n), w, m)
    np.testing.assert_allclose(a, b, atol=1e-10)


@given(shape=shapes, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_orthonormal_projection_never_increases_norm(shape, seed):
    x = _tensor_for(shape, seed)
    rng = rng_for(seed, "orth", shape)
    mats = []
    for s in shape:
        r = max(1, s - 1)
        q, _ = np.linalg.qr(rng.standard_normal((s, r)))
        mats.append(q)
    y = multi_ttm(x, mats, transpose=True)
    assert np.linalg.norm(y.ravel()) <= np.linalg.norm(x.ravel()) + 1e-10


@given(shape=shapes, seed=st.integers(0, 2**16), mode=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_gram_psd_with_norm_trace(shape, seed, mode):
    mode = mode % len(shape)
    x = _tensor_for(shape, seed)
    s = gram(x, mode)
    np.testing.assert_array_equal(s, s.T)
    assert np.linalg.eigvalsh(s).min() >= -1e-8
    np.testing.assert_allclose(
        np.trace(s), np.linalg.norm(x.ravel()) ** 2, rtol=1e-10, atol=1e-12
    )


@given(
    shape=st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_full_rank_identity_reconstruction(shape, seed):
    # Projecting onto complete orthonormal bases and back is the identity.
    x = _tensor_for(shape, seed)
    rng = rng_for(seed, "full", shape)
    qs = [np.linalg.qr(rng.standard_normal((s, s)))[0] for s in shape]
    core = multi_ttm(x, qs, transpose=True)
    back = multi_ttm(core, qs, transpose=False)
    np.testing.assert_allclose(back, x, atol=1e-9)
