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

    def test_from_local_factory(self):
        shape = (6, 8)

        def prog(comm):
            g = CartGrid(comm, (2, 2))
            dt = DistTensor.from_local_factory(
                g,
                shape,
                lambda slices: np.fromfunction(
                    lambda i, j: (i + slices[0].start) * 100 + (j + slices[1].start),
                    (slices[0].stop - slices[0].start,
                     slices[1].stop - slices[1].start),
                ),
            )
            return dt.to_global()

        expected = np.fromfunction(lambda i, j: i * 100 + j, shape)
        for recovered in spmd(4, prog):
            np.testing.assert_array_equal(recovered, expected)

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
    """``from_global`` takes any layout and always owns its F-ordered
    block — on the process backend ``x`` is a borrowed mapping that is
    gone once the rank function returns."""

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

