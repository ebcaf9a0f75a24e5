"""Cartesian grid communicator tests (paper Sec. IV geometry)."""

import hashlib

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import SUM, CartGrid, SpmdError
from repro.tensor import low_rank_tensor
from repro.tensor.eig import eigendecompose
from repro.tensor.gram import gram
from repro.tensor.qr import qr_r
from repro.tensor.ttm import ttm
from tests.conftest import spmd


class TestGeometry:
    def test_coords_roundtrip(self):
        def prog(comm):
            g = CartGrid(comm, (2, 3, 2))
            assert g.coords_of(comm.rank) == g.coords
            return g.coords

        res = spmd(12, prog)
        assert sorted(res.values) == sorted(
            (i, j, k) for i in range(2) for j in range(3) for k in range(2)
        )

    def test_c_order_linearization(self):
        def prog(comm):
            g = CartGrid(comm, (2, 3))
            return g.coords

        res = spmd(6, prog)
        # Rank 0 -> (0,0), rank 1 -> (0,1), ..., rank 5 -> (1,2).
        assert res.values == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_size_mismatch_raises(self):
        def prog(comm):
            CartGrid(comm, (2, 2))

        with pytest.raises(SpmdError):
            spmd(6, prog)

    def test_coords_of_validates(self):
        def prog(comm):
            g = CartGrid(comm, (2, 2))
            g.coords_of(4)

        with pytest.raises(SpmdError):
            spmd(4, prog)


class TestSubCommunicators:
    def test_mode_column_rank_is_coordinate(self):
        def prog(comm):
            g = CartGrid(comm, (2, 3))
            col = g.mode_column(1)
            return col.rank == g.coords[1] and col.size == 3

        assert all(spmd(6, prog).values)

    def test_mode_row_size(self):
        def prog(comm):
            g = CartGrid(comm, (2, 3, 2))
            return g.mode_row(1).size

        assert set(spmd(12, prog).values) == {4}

    def test_column_sum_isolates_columns(self):
        def prog(comm):
            g = CartGrid(comm, (2, 2))
            col = g.mode_column(0)  # varies first coordinate
            return col.allreduce(comm.rank, SUM)

        res = spmd(4, prog)
        # Grid: rank0=(0,0) rank1=(0,1) rank2=(1,0) rank3=(1,1).
        # mode-0 columns: {0,2} and {1,3}.
        assert res.values == [2, 4, 2, 4]

    def test_row_sum_isolates_rows(self):
        def prog(comm):
            g = CartGrid(comm, (2, 2))
            row = g.mode_row(0)  # fixes first coordinate
            return row.allreduce(comm.rank, SUM)

        res = spmd(4, prog)
        assert res.values == [1, 1, 5, 5]

    def test_sub_communicators_cached(self):
        def prog(comm):
            g = CartGrid(comm, (2, 2))
            return g.mode_column(0) is g.mode_column(0)

        assert all(spmd(4, prog).values)

    def test_row_and_column_overlap_exactly_self(self):
        def prog(comm):
            g = CartGrid(comm, (2, 3, 2))
            col = g.mode_column(1)
            row = g.mode_row(1)
            col_members = set(col.allgather(comm.rank))
            row_members = set(row.allgather(comm.rank))
            return col_members & row_members == {comm.rank}

        assert all(spmd(12, prog).values)

    def test_invalid_mode(self):
        def prog(comm):
            g = CartGrid(comm, (2, 2))
            g.mode_column(2)

        with pytest.raises(SpmdError):
            spmd(4, prog)

    def test_degenerate_extent_one(self):
        def prog(comm):
            g = CartGrid(comm, (1, 4))
            return g.mode_column(0).size, g.mode_row(0).size

        assert set(spmd(4, prog).values) == {(1, 4)}


#: Grids the locally built sub-communicators are checked on.
GRIDS = [(2,), (1, 2), (2, 1, 1), (2, 2, 1), (1, 2, 2), (4, 1, 1), (2, 1, 3)]


class _CountingTransport:
    """Forwards to a rank's transport, counting what would leave the rank."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in ("put", "get"):
            def counted(*args, **kwargs):
                self.calls += 1
                return attr(*args, **kwargs)

            return counted
        return attr


def _expected_members(g, mode, row):
    """The flat ranks of this rank's mode-``mode`` row (same coordinate
    ``mode``) or column (same other coordinates), in increasing flat rank:
    a column is then ordered by coordinate ``mode``, a row by the other
    coordinates in C order, the order ``MPI_Comm_split`` keyed on them
    gives."""
    def same(r):
        theirs = g.coords_of(r)
        return all(
            (i == mode) != row or c == g.coords[i] for i, c in enumerate(theirs)
        )

    return tuple(r for r in range(g.comm.size) if same(r))


def _members(sub, comm):
    return tuple(sub.allgather(comm.rank))


@pytest.mark.parametrize("dims", GRIDS, ids=str)
class TestLocallyBuilt:
    def test_members_and_order_follow_the_grid(self, dims):
        def prog(comm):
            g = CartGrid(comm, dims)
            out = []
            for mode in range(len(dims)):
                for row, sub in ((False, g.mode_column(mode)),
                                 (True, g.mode_row(mode))):
                    expected = _expected_members(g, mode, row)
                    out.append(
                        (_members(sub, comm), sub.rank)
                        == (expected, expected.index(comm.rank))
                    )
            return out

        for flags in spmd(int(np.prod(dims)), prog).values:
            assert flags and all(flags)

    def test_construction_sends_nothing(self, dims):
        def prog(comm):
            counting = _CountingTransport(comm._transport)
            comm._transport = counting
            try:
                g = CartGrid(comm, dims)
                subs = [
                    s for m in range(len(dims))
                    for s in (g.mode_column(m), g.mode_row(m))
                ]
                sent = counting.calls
                # Every sub-communicator works: one collective on each.
                for s in subs:
                    s.allreduce(comm.rank, SUM)
            finally:
                comm._transport = counting._inner
            return sent

        assert set(spmd(int(np.prod(dims)), prog).values) == {0}

    def test_the_whole_grid_is_the_grid_communicator(self, dims):
        def prog(comm):
            g = CartGrid(comm, dims)
            return [
                (g.mode_row(m) is g.comm, g.mode_column(m).size == 1)
                for m in range(len(dims))
            ]

        for flags in spmd(int(np.prod(dims)), prog).values:
            for m, (is_grid, single) in enumerate(flags):
                assert is_grid == (dims[m] == 1)
                assert single == (dims[m] == 1)


#: The input the hashed ST-HOSVD outputs below were recorded on.
_X = np.asfortranarray(
    low_rank_tensor((12, 10, 8), (5, 4, 3), seed=33, noise=0.01)
)

#: ``(dims, method, tol, ranks)`` -> digest of every rank's ranks, order,
#: core block, factor block rows and spectra, as the sub-communicators
#: built by a message-based ``split`` (and a separate norm pass) produced
#: them on an x86-64 OpenBLAS host, with the Gram rows' eigenvectors
#: from NumPy's ``eigh`` (``syevd``).
_RECORDED = {
    ((2, 1, 1), "gram", 0.05, None): "0d2af9201424d079",
    ((2, 1, 1), "gram", None, (5, 4, 3)): "6d8921235aa8f6e4",
    ((2, 1, 1), "svd", 0.05, None): "c908f936f2cbf734",
    ((1, 1, 2), "gram", 0.05, None): "96e0e14f1b05fb59",
    ((1, 1, 2), "svd", None, (5, 4, 3)): "62b0d66ef718d7af",
    # Planned order (1, 0, 2): the grid divides mode 0 too, so the plan
    # stands.
    ((2, 2, 1), "gram", 0.05, None): "851997fb1678f3ba",
    ((2, 2, 1), "svd", None, (5, 4, 3)): "0e07e000370df46d",
    ((1, 2, 2), "gram", None, (5, 4, 3)): "32647c2c2b8aae95",
    ((1, 2, 2), "svd", 0.05, None): "b1eb862fc82f9d04",
}

#: The same host's bytes for the sequential kernels those outputs are
#: made of; elsewhere the recorded digests cannot be expected to hold.
_KERNEL_DIGEST = "5255bc3d8da67020"


def _kernel_digest() -> str:
    e = eigendecompose(gram(_X, 1))
    h = hashlib.sha256(e.vectors.tobytes())
    h.update(np.ascontiguousarray(qr_r(_X, 2)).tobytes())
    h.update(np.ascontiguousarray(
        ttm(_X, e.vectors[:, :4], 1, transpose=True)
    ).tobytes())
    return h.hexdigest()[:16]


def _sthosvd_digest(comm, dims, method, tol, ranks):
    dt = DistTensor.from_global(CartGrid(comm, dims), _X)
    t = dist_sthosvd(
        dt, tol=tol, ranks=ranks, method=method, compute_dtype="float64"
    )
    h = hashlib.sha256(repr((t.ranks, t.mode_order)).encode())
    for a in [t.core.local, *t.factors_local, *t.eigenvalues]:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", list(_RECORDED), ids=str)
def test_sthosvd_outputs_are_the_recorded_bytes(case):
    if _kernel_digest() != _KERNEL_DIGEST:
        pytest.skip("this host's BLAS/LAPACK rounds differently")
    dims = case[0]
    ranks_digests = spmd(int(np.prod(dims)), _sthosvd_digest, *case).values
    joined = hashlib.sha256("".join(ranks_digests).encode()).hexdigest()
    assert joined[:16] == _RECORDED[case]
