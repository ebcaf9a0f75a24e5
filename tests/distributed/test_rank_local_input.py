"""Rank-local input: ``DistTensor.from_npy``, the distributed
``center_and_scale`` and the gather-to-root ``DistTucker.to_tucker``.

Together they are what ``repro-tucker compress --parallel`` runs on every
rank: no process holds more of the tensor than its own block, and only
rank 0 ever holds the model.  Each is checked against the path it
replaces (``from_global`` of the loaded file, the sequential
``center_and_scale``, the all-gathering ``to_tucker()``).
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.preprocess import (
    SIGMA_FLOOR,
    center_and_scale,
    dist_center_and_scale,
)
from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid
from repro.util.seeding import rng_for
from repro.util.validation import prod
from tests.conftest import spmd

#: How the ``.npy`` file stores the tensor.
LAYOUTS = {
    "fortran": np.asfortranarray,
    "c": np.ascontiguousarray,
    "float32": lambda x: np.asfortranarray(x, dtype=np.float32),
}


@st.composite
def problems(draw):
    """(shape, grid, species mode): order 2-5, every grid extent feasible,
    extents that do not divide their mode included, at most six ranks."""
    order = draw(st.integers(2, 5))
    shape, grid, total = [], [], 1
    for _ in range(order):
        s = draw(st.integers(2, 5))
        p = draw(st.integers(1, min(3, s)))
        if total * p > 6:
            p = 1
        shape.append(s)
        grid.append(p)
        total *= p
    return tuple(shape), tuple(grid), draw(st.integers(0, order - 1))


def _tensor(shape, mode, seed, constant):
    """Well-conditioned slices (mean 3, spread 2); the ``constant`` ones
    vary by less than ``SIGMA_FLOOR`` and must only be centred."""
    x = rng_for(seed, "scale", shape).normal(3.0, 2.0, size=shape)
    for s in {c % shape[mode] for c in constant}:
        index = (slice(None),) * mode + (s,)
        x[index] = 7.0 + SIGMA_FLOOR * 1e-2 * x[index]
    return x


def _normalized_blocks(path, grid, mode):
    def prog(comm):
        dt = DistTensor.from_npy(CartGrid(comm, grid), path)
        info = dist_center_and_scale(dt, mode)
        return dt.local_slices, dt.local, info

    return spmd(prod(grid), prog)


@given(
    problem=problems(),
    seed=st.integers(0, 2**16),
    constant=st.lists(st.integers(0, 4), max_size=2),
    layout=st.sampled_from(sorted(LAYOUTS)),
)
# Species mode split with a two-rank processor row; not split at all.
@example(problem=((5, 4, 3), (2, 1, 2), 2), seed=1, constant=[0],
         layout="fortran")
@example(problem=((5, 4, 3), (2, 1, 1), 1), seed=2, constant=[],
         layout="c")
@settings(max_examples=25, deadline=None)
def test_dist_center_and_scale_matches_sequential(
    problem, seed, constant, layout
):
    shape, grid, mode = problem
    stored = LAYOUTS[layout](_tensor(shape, mode, seed, constant))
    # float64 sums reorder by a few ulp; a float32 block rounds the centred
    # values before they are squared, so an ulp there moves the spread.
    tol = 1e-13 if stored.dtype == np.float64 else 1e-5
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.npy")
        np.save(path, stored)
        expected, info = center_and_scale(np.load(path), mode)
        results = _normalized_blocks(path, grid, mode)
    assert info.stds[[c % shape[mode] for c in constant]].tolist() == [
        1.0
    ] * len(constant)
    for slices, block, got in results:
        assert block.dtype == stored.dtype and block.flags.f_contiguous
        np.testing.assert_allclose(block, expected[slices], rtol=tol, atol=tol)
        assert got.mode == info.mode
        np.testing.assert_allclose(got.means, info.means, rtol=tol, atol=tol)
        np.testing.assert_allclose(got.stds, info.stds, rtol=tol)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("mode", [0, 2, 3])
def test_single_rank_grid_is_bit_identical(tmp_path, layout, mode):
    """One kernel: with nobody to reduce with, the rank computes exactly
    what the sequential function computes on the block ``from_npy`` built
    (Fortran-ordered whatever the file's order)."""
    shape = (6, 5, 4, 3)
    stored = LAYOUTS[layout](_tensor(shape, mode, 7, [1]))
    path = str(tmp_path / "x.npy")
    np.save(path, stored)
    expected, info = center_and_scale(np.asfortranarray(np.load(path)), mode)
    [(_, block, got)] = _normalized_blocks(path, (1,) * len(shape), mode)
    assert block.tobytes(order="A") == expected.tobytes(order="A")
    assert got.means.tobytes() == info.means.tobytes()
    assert got.stds.tobytes() == info.stds.tobytes()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_from_npy_is_from_global_of_the_file(tmp_path, layout):
    """Block for block what ``from_global(np.load(path))`` builds, and an
    owned copy: it outlives the file it was read from."""
    grid = (2, 1, 3)
    stored = LAYOUTS[layout](
        np.random.default_rng(3).standard_normal((5, 4, 7))
    )
    path = str(tmp_path / "x.npy")
    np.save(path, stored)

    def prog(comm):
        g = CartGrid(comm, grid)
        dt = DistTensor.from_npy(g, path)
        comm.barrier()
        if comm.rank == 0:
            os.remove(path)
        comm.barrier()
        reference = DistTensor.from_global(g, stored)
        return (
            dt.global_shape == reference.global_shape,
            dt.local.base is None and dt.local.flags.owndata,
            dt.local.flags.f_contiguous and dt.local.flags.writeable,
            dt.local.dtype == reference.local.dtype,
            dt.local.tobytes(order="A") == reference.local.tobytes(order="A"),
        )

    for checks in spmd(prod(grid), prog):
        assert checks == (True,) * 5
    assert not os.path.exists(path)


@pytest.mark.parametrize("grid", [(2, 1, 3), (1, 2, 2), (1, 1, 1)])
@pytest.mark.parametrize("root", [0, 1])
def test_to_tucker_root_gathers_to_that_rank_only(grid, root):
    root = min(root, prod(grid) - 1)
    x = np.random.default_rng(5).standard_normal((7, 6, 8))

    def prog(comm):
        dt = DistTensor.from_global(CartGrid(comm, grid), x)
        t = dist_sthosvd(dt, ranks=(3, 4, 5))
        return t.to_tucker(root=root), t.to_tucker()

    for rank, (rooted, everywhere) in enumerate(spmd(prod(grid), prog)):
        if rank != root:
            assert rooted is None
            continue
        assert rooted.core.tobytes(order="A") == everywhere.core.tobytes(
            order="A"
        )
        for got, want in zip(rooted.factors, everywhere.factors):
            np.testing.assert_array_equal(got, want)
