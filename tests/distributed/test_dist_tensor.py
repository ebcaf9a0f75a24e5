"""DistTensor construction and global-reduction tests."""

import numpy as np
import pytest

from repro.distributed import DistTensor
from repro.mpi import CartGrid, SpmdError
from repro.tensor import unfold
from tests.conftest import spmd


def _x(shape=(6, 9, 4), seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestConstruction:
    def test_from_global_blocks(self):
        x = _x()

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            return dt.local.shape, dt.local_slices

        res = spmd(6, prog)
        for local_shape, slices in res:
            assert local_shape == (3, 3, 4)
            np.testing.assert_array_equal(
                np.empty(local_shape).shape, x[slices].shape
            )

    def test_to_global_roundtrip(self):
        x = _x()

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            return DistTensor.from_global(g, x).to_global()

        for recovered in spmd(6, prog):
            np.testing.assert_array_equal(recovered, x)

    def test_scatter_from_root(self):
        x = _x()

        def prog(comm):
            g = CartGrid(comm, (2, 1, 2))
            dt = DistTensor.scatter(g, x if comm.rank == 0 else None, root=0)
            return dt.to_global()

        for recovered in spmd(4, prog):
            np.testing.assert_array_equal(recovered, x)

    def test_uneven_distribution(self):
        x = _x((7, 5, 3))

        def prog(comm):
            g = CartGrid(comm, (3, 2, 1))
            dt = DistTensor.from_global(g, x)
            return dt.local.shape, dt.to_global()

        res = spmd(6, prog)
        shapes = {r[0] for r in res}
        assert shapes == {(3, 3, 3), (3, 2, 3), (2, 3, 3), (2, 2, 3)}
        np.testing.assert_array_equal(res[0][1], x)

    def test_rejects_oversized_grid(self):
        x = _x((2, 3, 4))

        def prog(comm):
            g = CartGrid(comm, (4, 1, 1))
            DistTensor.from_global(g, x)

        with pytest.raises(
            SpmdError, match="non-empty blocks|more processors than elements"
        ):
            spmd(4, prog)

    def test_rejects_wrong_local_shape(self):
        def prog(comm):
            g = CartGrid(comm, (2,))
            DistTensor(g, (8,), np.zeros(5))

        with pytest.raises(SpmdError, match="does not match expected"):
            spmd(2, prog)

    def test_order_mismatch(self):
        def prog(comm):
            g = CartGrid(comm, (2,))
            DistTensor(g, (8, 8), np.zeros((4, 8)))

        with pytest.raises(SpmdError, match="order"):
            spmd(2, prog)


class TestReductionsAndUnfoldings:
    def test_norm_matches_sequential(self):
        x = _x()

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            return DistTensor.from_global(g, x).norm()

        expected = np.linalg.norm(x.ravel())
        for norm in spmd(6, prog):
            assert norm == pytest.approx(expected)

    def test_local_unfolding_is_logical(self):
        # The local unfolding equals the unfolding of the local block —
        # "unfolding is purely logical" (Sec. IV-C).
        x = _x()

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            ok = True
            for n in range(3):
                ok &= np.array_equal(dt.local_unfolding(n), unfold(dt.local, n))
            return ok

        assert all(spmd(6, prog).values)

    def test_with_local_replaces_block(self):
        x = _x()

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            doubled = dt.with_local(dt.local * 2)
            return doubled.to_global()

        for recovered in spmd(6, prog):
            np.testing.assert_allclose(recovered, 2 * x)


def _from_global_facts(comm, x):
    g = CartGrid(comm, (2, 1, 1))
    dt = DistTensor.from_global(g, x)
    local, expected = dt.local, x[dt.local_slices]
    return (
        bool(np.array_equal(local, expected)),
        local.flags.f_contiguous,
        local.flags.writeable,
        local.base is None,
        bool(np.shares_memory(local, x)),
        str(local.dtype),
    )


class TestFromGlobalOwnsOneCopy:
    """``from_global`` takes any layout and its F-ordered block is always
    private to the rank.  On this ``(2, 1, 1)`` grid no block is
    F-contiguous, so every backend pays the one copy."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: np.asfortranarray(x),
            lambda x: np.ascontiguousarray(x),
            lambda x: np.asfortranarray(np.repeat(x, 2, axis=1))[:, ::2],
            lambda x: x.astype(np.float32),
            lambda x: (x * 100).astype(np.int64),
        ],
        ids=["fortran", "c", "strided", "float32", "int64"],
    )
    def test_layouts_and_dtypes(self, make):
        x = make(_x())
        want = "float32" if x.dtype == np.float32 else "float64"
        for facts in spmd(2, _from_global_facts, x):
            assert facts == (True, True, True, True, False, want)

    def test_read_only_input(self):
        x = np.asfortranarray(_x())
        x.flags.writeable = False
        for facts in spmd(2, _from_global_facts, x):
            assert facts[:5] == (True, True, True, True, False)

    def test_compliant_block_is_not_copied_again(self):
        # The constructor itself keeps a block that is already F-ordered
        # and of the working dtype: kernels hand their outputs over.
        def prog(comm):
            g = CartGrid(comm, (2, 1, 1))
            dt = DistTensor.from_global(g, _x())
            block = np.asfortranarray(dt.local * 2)
            return dt.with_local(block).local is block

        assert all(spmd(2, prog).values)



#: Blocks a rank function kept past its run (see ``_keep_block``).
_KEPT: list = []

#: Several pages; a (1, 1, 2) grid cuts it into two F-contiguous blocks.
_BORROWED_SHAPE = (16, 16, 8)


def _private_maps() -> list[str]:
    with open("/proc/self/maps") as fh:
        return [
            f[5] for f in (line.split() for line in fh)
            if len(f) >= 6 and f[1][3] == "p" and "rps_" in f[5]
        ]


def _block_facts(comm, x):
    dt = DistTensor.from_global(CartGrid(comm, (1, 1, 2)), x)
    return (
        bool(np.shares_memory(dt.local, x)),
        bool(np.array_equal(dt.local, x[dt.local_slices])),
        dt.local.flags.f_contiguous,
        dt.local.flags.writeable,
    )


def _write_block(comm, x):
    before = x.copy()
    dt = DistTensor.from_global(CartGrid(comm, (1, 1, 2)), x)
    dt.local[...] = -(comm.rank + 1.0)
    comm.barrier()  # both ranks have written before either looks
    mine = np.zeros_like(x, dtype=bool)
    mine[dt.local_slices] = True
    return (
        bool(np.all(x[mine] == -(comm.rank + 1.0))),
        bool(np.array_equal(x[~mine], before[~mine])),
    )


def _keep_block(comm, x):
    dt = DistTensor.from_global(CartGrid(comm, (1, 1, 2)), x)
    _KEPT.append(dt.local)


def _return_kept(comm, y):
    maps = _private_maps()
    return np.array(_KEPT.pop()), float(y.sum()), maps


class TestBorrowedBlockIsPrivate:
    """On a pooled process rank ``x`` is the rank's own copy-on-write
    mapping of the staged argument, so a block of it that is already
    F-contiguous is used where it lies — and is still private."""

    @pytest.fixture(autouse=True)
    def spmd_backend(self):
        return None  # the pool's borrowed arguments are the subject

    def _x(self, seed=0):
        return np.asfortranarray(_x(_BORROWED_SHAPE, seed))

    def test_the_block_is_a_view(self):
        for facts in spmd(2, _block_facts, self._x(), backend="process"):
            assert facts == (True, True, True, True)
        # Not on the thread backend: there ``x`` is the caller's array.
        for facts in spmd(2, _block_facts, self._x(), backend="thread"):
            assert facts == (False, True, True, True)

    def test_a_write_reaches_neither_the_caller_nor_the_peer(self):
        x = self._x()
        original = x.copy()
        res = spmd(2, _write_block, x, backend="process")
        assert res.values == [(True, True), (True, True)]
        assert np.array_equal(x, original)

    def test_a_kept_block_survives_the_next_run(self):
        x = self._x()
        spmd(2, _keep_block, x, backend="process")
        # The same size: the parent restages this tensor into the
        # segment the kept blocks were mapped from.
        y = self._x(seed=1)
        res = spmd(2, _return_kept, y, backend="process")
        for rank, (kept, seen, maps) in enumerate(res.values):
            assert seen == float(y.sum())
            assert len(set(maps)) < len(maps), "segment not recycled"
            half = _BORROWED_SHAPE[2] // 2
            assert np.array_equal(
                kept, x[:, :, rank * half:(rank + 1) * half]
            )
