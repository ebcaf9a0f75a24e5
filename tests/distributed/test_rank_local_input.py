"""Rank-local input: ``DistTensor.from_npy``, the distributed
``center_and_scale`` and the gather-to-root ``DistTucker.to_tucker``.

Together they are what ``repro-tucker compress --parallel`` runs on every
rank: no process holds more of the tensor than its own block, and only
rank 0 ever holds the model.  Each is checked against the path it
replaces (``from_global`` of the loaded file, the sequential
``center_and_scale``, the all-gathering ``to_tucker()``).
"""

import json
import os
import subprocess
import sys
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
from repro.distributed import dist_tensor
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


#: ``(shape, grid)`` with mode 0 varying fastest in the file; a C-ordered
#: file stores both reversed, so each case keeps its slowest mode.
BLOCK_CASES = {
    "uneven": ((7, 5, 6), (2, 1, 3)),
    "size-1 modes": ((1, 6, 1, 5), (1, 2, 1, 2)),
    "1-D": ((11,), (3,)),
    # One index of the slowest mode spans more than SLAB_BYTES in every
    # dtype, so the slabs run along the mode before it.
    "slab in the next mode": ((1100, 600, 2), (2, 2, 1)),
}
DTYPES = [np.float64, np.float32, np.int64]


def _stored(shape, dtype, order):
    x = np.random.default_rng(11).standard_normal(shape) * 1000
    return np.asarray(x, dtype=dtype, order=order)


def _blocks_equal(path, grid, **spmd_kwargs):
    """Per rank: does ``from_npy`` hold what ``from_global`` of the loaded
    file holds, byte for byte, with the same global shape, dtype and
    layout, in an owned writable array that outlives the file?  The file
    is deleted once every rank has read its block."""

    def prog(comm):
        g = CartGrid(comm, grid)
        want = DistTensor.from_global(g, np.load(path))
        dt = DistTensor.from_npy(g, path)
        comm.barrier()
        if comm.rank == 0:
            os.remove(path)
        comm.barrier()
        got = dt.local
        return (
            dt.global_shape == want.global_shape
            and got.base is None and got.flags.owndata
            and got.flags.writeable and got.flags.f_contiguous
            and got.dtype == want.local.dtype
            and got.tobytes(order="A") == want.local.tobytes(order="A")
        )

    results = spmd(prod(grid), prog, **spmd_kwargs)
    assert not os.path.exists(path)
    return results


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_from_npy_is_from_global_of_the_file(tmp_path, case, order, dtype):
    """Block for block what ``from_global(np.load(path))`` builds, as an
    owned copy."""
    shape, grid = BLOCK_CASES[case]
    if order == "C":
        shape, grid = shape[::-1], grid[::-1]
    path = str(tmp_path / "x.npy")
    np.save(path, _stored(shape, dtype, order))
    assert all(_blocks_equal(path, grid))


@pytest.mark.parametrize("slab", [8, 24, 200, 1000])
@pytest.mark.parametrize("order", ["F", "C"])
def test_any_slab_bound_reads_the_same_block(
    tmp_path, monkeypatch, slab, order
):
    """Slab bounds from one element up split the read in every mode."""
    monkeypatch.setattr(dist_tensor, "SLAB_BYTES", slab)
    path = str(tmp_path / "x.npy")
    for grid in [(2, 1, 3, 2), (1, 4, 1, 1), (1, 1, 1, 1)]:
        np.save(path, _stored((5, 4, 3, 6), np.float64, order))
        assert all(_blocks_equal(path, grid, backend="thread"))


#: Run in a fresh interpreter: rank 0 of a four-rank grid that divides the
#: fastest mode reads its quarter block, so every page of the file holds
#: some of it.  Prints the rise of ``VmHWM`` over the read, in bytes.
_QUARTER_READ = """
import json, sys
from repro.distributed import DistTensor
from repro.mpi import CartGrid, run_spmd

def hwm():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

def prog(comm, path):
    grid = CartGrid(comm, (4, 1, 1, 1))
    comm.barrier()
    rise = block = None
    if comm.rank == 0:
        before = hwm()
        block = DistTensor.from_npy(grid, path).local.nbytes
        rise = hwm() - before
    comm.barrier()
    return rise, block

rise, block = run_spmd(4, prog, sys.argv[1], backend="thread")[0]
print(json.dumps({"rise": rise, "block": block}))
"""


def test_a_quarter_block_read_maps_about_one_slab_of_the_file(tmp_path):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    shape = (64, 64, 48, 32)  # 48 MiB of float64
    path = str(tmp_path / "big.npy")
    x = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=shape, fortran_order=True
    )
    for j in range(shape[-1]):
        x[..., j] = j
    x.flush()
    del x
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _QUARTER_READ, path],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["block"] == prod(shape) * 8 // 4
    # Reading through a whole-file mapping raises it by block + file.
    slack = 4 << 20
    assert got["rise"] <= got["block"] + 2 * dist_tensor.SLAB_BYTES + slack, got


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
