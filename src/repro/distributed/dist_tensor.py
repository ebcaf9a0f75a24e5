"""Block-distributed dense tensors (paper Sec. IV-A, IV-C).

A :class:`DistTensor` couples a :class:`~repro.mpi.cart.CartGrid` with this
rank's local block of a global tensor.  Unfolding the distributed tensor is
purely logical: the local portion of the global mode-n unfolding *is* the
mode-n unfolding of the local block (Sec. IV-C), so no distributed method
here ever redistributes tensor data — the property the paper's design is
built around.

Construction helpers: ``from_npy`` is the ingest path — every rank copies
only its own block out of a ``.npy`` file, one slab of at most
:data:`SLAB_BYTES` of the file at a time, and drops each slab's file pages
once it is copied, so no process ever holds the whole tensor or maps more
than about one slab of the file (how the paper's code reads its data, and
what ``repro-tucker compress --parallel`` runs).  ``from_global`` is the
replicated-array convenience (every rank already holds the whole array and
slices its block — tests, and callers whose data is in memory anyway; a
pooled process rank's array is its own copy-on-write mapping, and a
Fortran-contiguous block of it is used where it is mapped), and
``scatter`` has the root hold the array and send blocks.
"""

from __future__ import annotations

import itertools
import mmap
import os
from typing import NamedTuple, Sequence

import numpy as np

from repro.distributed.layout import local_block, local_shape
from repro.mpi.cart import CartGrid
from repro.mpi.errors import CommunicatorError
from repro.mpi.process_transport import is_borrowed
from repro.mpi.reduce_ops import SUM
from repro.tensor.dense import match_dtype, norm_sq, unfold
from repro.util.validation import check_shape_like, prod

#: Bytes of the input file one step of :meth:`DistTensor.from_npy` spans:
#: a run of whole indices of the file's slowest-varying mode, or of the
#: next mode when one index is larger.  The copied slab's file pages are
#: dropped before the next one is read, so this bounds what a rank maps of
#: the file at once.  Why it is one constant and not a knob: from 1 to
#: 16 MB the read of a block takes the same time, and the peak is lowest
#: from 4 MB down (the README's ``compress --parallel`` section).
SLAB_BYTES = 2 * 1024 * 1024

#: ``mmap.MADV_DONTNEED`` where the platform has it: dropping a read slab's
#: file pages is best-effort, and without it the mapping is only dropped
#: whole, on return.
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)

_ZIP_PREFIXES = (b"PK\x03\x04", b"PK\x05\x06")


class NpyHeader(NamedTuple):
    """What a ``.npy`` file's header says about the array after it."""

    shape: tuple[int, ...]
    dtype: np.dtype
    fortran_order: bool
    offset: int  # file offset of the first element


def read_npy_header(path: str | os.PathLike) -> NpyHeader:
    """Parse the header of the ``.npy`` file at ``path``; no data is read.

    Raises ``ValueError`` (naming ``path``) unless the file is a single
    ``.npy`` array without Python objects whose data is all there.
    """
    path = os.fspath(path)
    fmt = np.lib.format
    with open(path, "rb") as fh:
        if fh.read(4).startswith(_ZIP_PREFIXES):  # an .npz archive
            raise ValueError(f"{path} is not a single .npy array")
        fh.seek(0)
        try:
            version = fmt.read_magic(fh)
            if version == (1, 0):
                shape, fortran_order, dtype = fmt.read_array_header_1_0(fh)
            elif version in ((2, 0), (3, 0)):
                shape, fortran_order, dtype = fmt.read_array_header_2_0(fh)
            else:
                raise ValueError(f"unsupported format version {version}")
            if dtype.hasobject:
                raise ValueError("Python objects in dtype")
            offset = fh.tell()
            stored = os.fstat(fh.fileno()).st_size - offset
            needed = prod(shape) * dtype.itemsize
            if stored < needed:
                raise ValueError(
                    f"header promises {needed} data bytes, file holds {stored}"
                )
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path} is not a .npy tensor: {exc}") from None
    return NpyHeader(tuple(shape), dtype, fortran_order, offset)


def _copy_slabs(
    mapped: mmap.mmap,
    header: NpyHeader,
    slices: tuple[slice, ...],
    out: np.ndarray,
) -> None:
    """Copy ``slices`` of the array ``header`` describes in ``mapped`` into
    ``out``, slab by slab in file order, dropping the pages behind each.

    A C-ordered file is read as the Fortran-ordered file of the reversed
    shape, so mode 0 below always varies fastest in the file.
    """
    shape, block, dst = header.shape, slices, out
    if not header.fortran_order:
        shape, block, dst = shape[::-1], block[::-1], out.T
    # File bytes one index of each mode spans; the slab mode is the
    # slowest one whose single index fits the slab bound.
    spans = [header.dtype.itemsize]
    for extent in shape[:-1]:
        spans.append(spans[-1] * extent)
    k = max(m for m, span in enumerate(spans) if span <= SLAB_BYTES)
    step = SLAB_BYTES // spans[k]
    file = np.ndarray(
        shape, dtype=header.dtype, buffer=mapped, offset=header.offset,
        order="F",
    )
    try:
        behind = 0  # mapping offset below which pages are dropped
        lead = (slice(None),) * k
        first, last = block[k].start, block[k].stop
        # Slowest mode outermost, so slabs are visited in file order.
        outer = [range(s.start, s.stop) for s in block[:k:-1]]
        for fixed in itertools.product(*outer):
            fixed = fixed[::-1]  # indices of modes k+1 .. N-1
            base = header.offset + sum(
                i * spans[m] for m, i in enumerate(fixed, k + 1)
            )
            at = tuple(i - s.start for i, s in zip(fixed, block[k + 1:]))
            for lo in range(first, last, step):
                hi = min(lo + step, last)
                dst[lead + (slice(lo - first, hi - first),) + at] = file[
                    block[:k] + (slice(lo, hi),) + fixed
                ]
                end = base + hi * spans[k]
                end -= end % mmap.PAGESIZE
                if _DONTNEED is not None and end > behind:
                    mapped.madvise(_DONTNEED, behind, end - behind)
                    behind = end
    finally:
        del file  # no view may outlive the mapping's close


class DistTensor:
    """One rank's view of a block-distributed global tensor."""

    def __init__(
        self,
        grid: CartGrid,
        global_shape: Sequence[int],
        local: np.ndarray,
    ):
        global_shape = check_shape_like(global_shape, "global_shape")
        if len(global_shape) != grid.ndim:
            raise ValueError(
                f"tensor order {len(global_shape)} does not match grid order "
                f"{grid.ndim}"
            )
        for j, p in zip(global_shape, grid.dims):
            if p > j:
                raise ValueError(
                    f"grid {grid.dims} has more processors than elements in "
                    f"some mode of shape {global_shape}"
                )
        expected = local_shape(global_shape, grid.dims, grid.coords)
        if tuple(local.shape) != expected:
            raise ValueError(
                f"local block shape {local.shape} does not match expected "
                f"{expected} at coords {grid.coords}"
            )
        self._grid = grid
        self._global_shape = global_shape
        # float32 blocks stay float32 (the mixed-precision working
        # representation); everything else is coerced to float64.  A
        # compliant block is kept as is, any other costs one F-order copy.
        local = np.asarray(local)
        self._local = local.astype(
            match_dtype(local.dtype), order="F", copy=False
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_global(cls, grid: CartGrid, array: np.ndarray) -> "DistTensor":
        """Each rank slices its own block from a replicated global array.

        The block is private to the rank.  A pooled process rank's
        ``array`` is a borrowed copy-on-write mapping that is already
        private (:func:`~repro.mpi.process_transport.is_borrowed`), so a
        block of it that is Fortran-contiguous in the working dtype is
        used where it lies.  Any other block is the one copy made and never
        aliases ``array``.
        """
        array = np.asarray(array)
        block = array[local_block(array.shape, grid.dims, grid.coords)]
        dtype = match_dtype(array.dtype)
        if not (
            block.dtype == dtype and block.flags.f_contiguous
            and is_borrowed(array)
        ):
            block = np.array(block, dtype=dtype, order="F")
        return cls(grid, array.shape, block)

    @classmethod
    def from_npy(cls, grid: CartGrid, path: str | os.PathLike) -> "DistTensor":
        """Each rank reads only its own block of the ``.npy`` file at ``path``.

        The block is what :meth:`from_global` of the loaded file holds,
        byte for byte.  The file is memory-mapped (C- or Fortran-ordered
        alike) and the block copied into an owned Fortran-ordered array
        one slab of at most :data:`SLAB_BYTES` of the file at a time, in
        file order; each copied slab's pages are dropped from the mapping
        (``MADV_DONTNEED``), so a rank maps about one slab of the file at
        once, never the whole file.  The mapping is closed on return, so
        the file may be replaced or deleted afterwards.
        """
        path = os.fspath(path)
        header = read_npy_header(path)
        slices = local_block(header.shape, grid.dims, grid.coords)
        out = np.empty(
            tuple(s.stop - s.start for s in slices),
            dtype=match_dtype(header.dtype),
            order="F",
        )
        with open(path, "rb") as fh, mmap.mmap(
            fh.fileno(), 0, access=mmap.ACCESS_READ
        ) as mapped:
            _copy_slabs(mapped, header, slices, out)
        return cls(grid, header.shape, out)

    @classmethod
    def scatter(
        cls,
        grid: CartGrid,
        array: np.ndarray | None,
        root: int = 0,
    ) -> "DistTensor":
        """Root rank scatters blocks of ``array`` to all ranks.

        ``array`` is only required on ``root``; its shape is broadcast.
        """
        comm = grid.comm
        shape = comm.bcast(
            None if array is None else tuple(np.asarray(array).shape), root=root
        )
        if shape is None:
            raise CommunicatorError("scatter root passed array=None")
        if comm.rank == root:
            arr = np.asarray(array, dtype=match_dtype(np.asarray(array).dtype))
            blocks = [
                np.array(arr[local_block(shape, grid.dims, grid.coords_of(r))],
                         order="F")
                for r in range(comm.size)
            ]
        else:
            blocks = None
        local = comm.scatter(blocks, root=root)
        return cls(grid, shape, local)

    # -- geometry ------------------------------------------------------------------

    @property
    def grid(self) -> CartGrid:
        return self._grid

    @property
    def comm(self):
        return self._grid.comm

    @property
    def global_shape(self) -> tuple[int, ...]:
        return self._global_shape

    @property
    def ndim(self) -> int:
        return len(self._global_shape)

    @property
    def local(self) -> np.ndarray:
        """This rank's block (Fortran-ordered)."""
        return self._local

    @property
    def local_slices(self) -> tuple[slice, ...]:
        return local_block(self._global_shape, self._grid.dims, self._grid.coords)

    def local_unfolding(self, mode: int) -> np.ndarray:
        """Mode-``mode`` unfolding of the local block (logical, Sec. IV-C)."""
        return unfold(self._local, mode)

    # -- global reductions -------------------------------------------------------------

    def norm_sq(self) -> float:
        """``||X||^2`` via local sum-of-squares (float64) + all-reduce."""
        local = norm_sq(self._local)
        self.comm.add_flops(2 * self._local.size)
        return float(self.comm.allreduce(local, SUM))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def to_global(self) -> np.ndarray:
        """Assemble the full tensor on every rank (test/analysis helper).

        Costs an all-gather of the entire tensor; fine at simulation scale,
        never used inside the decomposition algorithms.
        """
        comm = self.comm
        pieces = comm.allgather((self._grid.coords, self._local))
        out = np.zeros(self._global_shape, dtype=self._local.dtype, order="F")
        for coords, block in pieces:
            out[local_block(self._global_shape, self._grid.dims, coords)] = block
        return out

    def with_local(
        self, local: np.ndarray, global_shape: Sequence[int] | None = None
    ) -> "DistTensor":
        """New DistTensor on the same grid with a replaced local block."""
        return DistTensor(
            self._grid,
            self._global_shape if global_shape is None else global_shape,
            local,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistTensor(global={self._global_shape}, grid={self._grid.dims}, "
            f"local={self._local.shape})"
        )
