"""Property-based tests for the core Tucker algorithms.

Invariants checked on random shapes/data:

* ST-HOSVD with tol=eps always satisfies the eq. (3) error guarantee.
* The ST-HOSVD error estimate (eigenvalue tails) equals the true error.
* HOOI's fit history is monotone nonincreasing.
* Compression ratio accounting is consistent between the formula and the
  TuckerTensor object.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import compression_ratio, hooi, sthosvd
from repro.tensor import low_rank_tensor

orders = st.integers(2, 3)


@st.composite
def problems(draw):
    order = draw(orders)
    shape = tuple(draw(st.integers(4, 8)) for _ in range(order))
    ranks = tuple(draw(st.integers(1, s - 1)) for s in shape)
    seed = draw(st.integers(0, 2**16))
    noise = draw(st.sampled_from([0.0, 0.01, 0.2]))
    return shape, ranks, seed, noise


@given(problem=problems(), eps=st.sampled_from([0.5, 0.1, 0.02]))
@settings(max_examples=30, deadline=None)
def test_sthosvd_error_guarantee(problem, eps):
    shape, ranks, seed, noise = problem
    x = low_rank_tensor(shape, ranks, seed=seed, noise=noise)
    res = sthosvd(x, tol=eps)
    assert res.decomposition.relative_error(x) <= eps * (1 + 1e-9)


@given(problem=problems())
@settings(max_examples=30, deadline=None)
def test_sthosvd_estimate_is_exact(problem):
    shape, ranks, seed, noise = problem
    x = low_rank_tensor(shape, ranks, seed=seed, noise=noise)
    res = sthosvd(x, tol=0.1)
    true_err = res.decomposition.relative_error(x)
    # Tight agreement except at the double-precision Gram floor (~1e-7).
    assert abs(res.error_estimate() - true_err) <= 1e-6 + 1e-4 * true_err


@given(problem=problems())
@settings(max_examples=20, deadline=None)
def test_hooi_monotone(problem):
    shape, ranks, seed, noise = problem
    x = low_rank_tensor(shape, ranks, seed=seed, noise=noise)
    target = tuple(max(1, r - 1) for r in ranks)
    res = hooi(x, ranks=target, max_iterations=4, improvement_tol=0.0)
    h = np.array(res.residual_history)
    # Monotone up to roundoff in ||X||^2 (residuals are differences of
    # squared norms, so their noise floor is ~eps * ||X||^2).
    x_norm_sq = float(np.linalg.norm(x.ravel()) ** 2)
    assert np.all(np.diff(h) <= 1e-9 * h[0] + 1e-12 * x_norm_sq)


@given(problem=problems())
@settings(max_examples=30, deadline=None)
def test_compression_accounting_consistent(problem):
    shape, ranks, seed, noise = problem
    x = low_rank_tensor(shape, ranks, seed=seed, noise=noise)
    res = sthosvd(x, ranks=ranks)
    t = res.decomposition
    assert t.compression_ratio == compression_ratio(t.shape, t.ranks)


@given(problem=problems())
@settings(max_examples=20, deadline=None)
def test_subtensor_agrees_with_full_reconstruction(problem):
    shape, ranks, seed, noise = problem
    x = low_rank_tensor(shape, ranks, seed=seed, noise=noise)
    t = sthosvd(x, ranks=ranks).decomposition
    full = t.reconstruct()
    spec = [slice(0, max(1, s // 2)) for s in shape]
    sub = t.reconstruct_subtensor(spec)
    np.testing.assert_allclose(sub, full[tuple(spec)], atol=1e-9)
