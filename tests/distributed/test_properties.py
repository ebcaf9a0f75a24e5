"""Property-based tests for the distributed layer.

The fundamental invariant of the whole parallel design: for *any* shape,
grid, and data, the distributed algorithms compute what the definitions
(the kernels' sequential counterparts, the textbook ST-HOSVD of
``tests/reference.py``) compute.  Hypothesis explores shapes/grids including
uneven divisions the unit tests don't enumerate.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distributed import DistTensor, dist_gram, dist_sthosvd, dist_ttm
from repro.distributed.layout import block_range
from repro.mpi import CartGrid
from repro.tensor import gram, ttm
from repro.util.seeding import rng_for
from repro.util.validation import prod
from tests.conftest import recon_atol, spmd
from tests.reference import st_hosvd


@st.composite
def problems(draw):
    """(shape, grid) pairs with every grid extent feasible for its mode."""
    order = draw(st.integers(2, 3))
    shape = []
    grid = []
    total_ranks = 1
    for _ in range(order):
        s = draw(st.integers(2, 7))
        p = draw(st.integers(1, min(3, s)))
        if total_ranks * p > 12:
            p = 1
        shape.append(s)
        grid.append(p)
        total_ranks *= p
    return tuple(shape), tuple(grid)


@given(problem=problems(), seed=st.integers(0, 2**16), mode=st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_dist_ttm_matches_sequential(problem, seed, mode):
    shape, grid = problem
    mode = mode % len(shape)
    x = rng_for(seed, "dttm", shape).standard_normal(shape)
    k = max(grid[mode], 2)
    v = rng_for(seed, "dttm-v", shape, mode).standard_normal((k, shape[mode]))

    def prog(comm):
        g = CartGrid(comm, grid)
        dt = DistTensor.from_global(g, x)
        sl = dt.local_slices[mode]
        z = dist_ttm(dt, np.ascontiguousarray(v[:, sl]), mode, k,
                     strategy="blocked")
        return z.to_global()

    result = spmd(prod(grid), prog)[0]
    np.testing.assert_allclose(result, ttm(x, v, mode), atol=1e-9)


@given(problem=problems(), seed=st.integers(0, 2**16), mode=st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_dist_gram_matches_sequential(problem, seed, mode):
    shape, grid = problem
    mode = mode % len(shape)
    x = rng_for(seed, "dgram", shape).standard_normal(shape)

    def prog(comm):
        g = CartGrid(comm, grid)
        dt = DistTensor.from_global(g, x)
        s_rows = dist_gram(dt, mode)
        start, stop = block_range(shape[mode], grid[mode], g.coords[mode])
        return s_rows, (start, stop)

    expected = gram(x, mode)
    for s_rows, (start, stop) in spmd(prod(grid), prog):
        np.testing.assert_allclose(s_rows, expected[start:stop], atol=1e-8)


@given(problem=problems(), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_dist_sthosvd_matches_reference(problem, seed):
    shape, grid = problem
    # Ranks: feasible (>= grid extent, <= dim).
    ranks = tuple(max(p, min(s, 2)) for s, p in zip(shape, grid))
    x = rng_for(seed, "dst", shape).standard_normal(shape)
    ref = st_hosvd(x, ranks=ranks)

    def prog(comm):
        g = CartGrid(comm, grid)
        dt = DistTensor.from_global(g, x)
        t = dist_sthosvd(dt, ranks=ranks)
        return t.to_tucker()

    tucker = spmd(prod(grid), prog)[0]
    np.testing.assert_allclose(
        tucker.reconstruct(), ref.reconstruct(),
        atol=recon_atol(1e-7),
    )


@given(problem=problems(), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_round_trip_distribution(problem, seed):
    shape, grid = problem
    x = rng_for(seed, "rt", shape).standard_normal(shape)

    def prog(comm):
        g = CartGrid(comm, grid)
        return DistTensor.from_global(g, x).to_global()

    for recovered in spmd(prod(grid), prog):
        np.testing.assert_array_equal(recovered, x)
