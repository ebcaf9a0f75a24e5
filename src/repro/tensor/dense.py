"""Dense tensors and mode-n unfoldings (paper Sec. II-A, IV-C).

Unfolding convention
--------------------
``unfold(x, n)`` is the ``I_n x (I / I_n)`` matrix whose column index
enumerates the remaining modes *in increasing mode order with mode 1
(Python mode 0) varying fastest*:

    ``unfold(x, n) = reshape(moveaxis(x, n, 0), (I_n, -1), order="F")``

This is the convention of the paper's data layout (Sec. IV): a tensor is
stored so that its mode-1 unfolding is column-major, and unfolding is a
purely *logical* operation — for ``n = 0`` the unfolding is exactly the
Fortran-ordered buffer reinterpreted as a matrix, and for interior modes the
columns are a sequence of contiguous sub-blocks (Fig. 3b).  The matrix
element mapping is ``(i_1, ..., i_N) -> (i_n, j)`` with

    ``j = sum_{k != n} i_k * prod_{m < k, m != n} I_m``.

``fold`` is the exact inverse.  Tensors are stored Fortran-ordered
internally so that ``unfold(x, 0)`` is always a zero-copy view.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.validation import check_axis, check_shape_like, prod


def unfold(array: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of ``array`` (paper layout convention)."""
    mode = check_axis(mode, array.ndim)
    return np.reshape(
        np.moveaxis(array, mode, 0), (array.shape[mode], -1), order="F"
    )


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape``.

    ``matrix`` must be ``shape[mode] x (prod(shape) / shape[mode])``.
    """
    shape = check_shape_like(shape)
    mode = check_axis(mode, len(shape))
    if matrix.ndim != 2:
        raise ValueError(f"fold expects a matrix, got ndim={matrix.ndim}")
    expected = (shape[mode], prod(shape) // shape[mode])
    if matrix.shape != expected:
        raise ValueError(
            f"matrix shape {matrix.shape} does not match unfolding {expected} "
            f"of tensor shape {tuple(shape)} in mode {mode}"
        )
    moved = (shape[mode],) + tuple(s for i, s in enumerate(shape) if i != mode)
    return np.moveaxis(np.reshape(matrix, moved, order="F"), 0, mode)


#: Bytes of one cache-sized working piece of the local kernels: the
#: column panel of a first-mode ``ttm``, the row panel of a tall ``ttm``
#: sub-block, the packed sub-block panel of an interior-mode ``gram`` and
#: the row chunk of ``qr_r``.  Why it is one
#: constant and not a knob: the README's "Local kernels" tables.
PANEL_BYTES = 512 * 1024

#: float32 elements widened to float64 per step of :func:`norm_sq`.
_NORM_CHUNK = 1 << 16


def norm_sq(array: np.ndarray) -> float:
    """``||X||^2``, accumulated in float64 with no full-size temporary.

    Entries are visited in *memory* order: a contiguous tensor of either
    layout is a zero-copy 1-D view, where ``array.reshape(-1)`` first
    transposes a Fortran-ordered one into a C-order copy.  float32 input
    is widened a chunk at a time — the norm feeds tolerance thresholds,
    and a float32 running sum would lose the digits the budget counts on.
    """
    flat = as_ndarray(array).ravel(order="K")
    if flat.dtype != np.float32:
        return float(np.dot(flat, flat))
    total = 0.0
    for start in range(0, flat.size, _NORM_CHUNK):
        chunk = flat[start:start + _NORM_CHUNK].astype(np.float64)
        total += float(np.dot(chunk, chunk))
    return total


def norm(array: np.ndarray) -> float:
    """Tensor norm ``||X|| = ||X_(1)||_F`` (root of :func:`norm_sq`)."""
    return float(np.sqrt(norm_sq(array)))


class Tensor:
    """A dense real tensor with the paper's layout and mode operations.

    Thin wrapper over a float ndarray kept Fortran-ordered, so the mode-1
    (index 0) unfolding is a zero-copy column-major view, matching the
    storage convention of Sec. IV-A.  Most library functions accept plain
    ndarrays; this class is the convenient user-facing handle.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray, copy: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            raise ValueError("a Tensor must have at least one mode")
        self._data = np.asfortranarray(arr) if (copy or not arr.flags.f_contiguous) else arr

    # -- construction ---------------------------------------------------------

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        return cls(
            np.zeros(check_shape_like(shape), dtype=np.float64, order="F"),
            copy=False,
        )

    @classmethod
    def from_unfolding(
        cls, matrix: np.ndarray, mode: int, shape: Sequence[int]
    ) -> "Tensor":
        return cls(fold(matrix, mode, shape))

    # -- basic properties -------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying ndarray (Fortran-ordered)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def __getitem__(self, idx):
        return self._data[idx]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return np.asarray(self._data, dtype=dtype)
        return self._data

    # -- paper Sec. II-A operations ----------------------------------------------

    def unfold(self, mode: int) -> np.ndarray:
        """Mode-``mode`` unfolding ``X_(n)`` of size ``I_n x I/I_n``."""
        return unfold(self._data, mode)

    def norm(self) -> float:
        """Tensor norm ``||X|| = ||X_(1)||_F`` (root of sum of squares)."""
        return norm(self._data)

    def nrank(self, mode: int, tol: float | None = None) -> int:
        """n-rank: column rank of the mode-``mode`` unfolding."""
        mat = self.unfold(mode)
        return int(np.linalg.matrix_rank(mat, tol=tol))

    def ttm(self, v: np.ndarray, mode: int, transpose: bool = False) -> "Tensor":
        """Mode-``mode`` product ``X x_n V`` (see :func:`repro.tensor.ttm.ttm`)."""
        from repro.tensor.ttm import ttm as _ttm

        return Tensor(_ttm(self._data, v, mode, transpose=transpose), copy=False)

    def gram(self, mode: int) -> np.ndarray:
        """Mode-``mode`` Gram matrix ``X_(n) X_(n)^T``."""
        from repro.tensor.gram import gram as _gram

        return _gram(self._data, mode)

    def scale_by(self, value: float) -> "Tensor":
        return Tensor(self._data * value, copy=False)

    def __sub__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other_arr = other.data if isinstance(other, Tensor) else np.asarray(other)
        return Tensor(self._data - other_arr, copy=False)

    def __add__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other_arr = other.data if isinstance(other, Tensor) else np.asarray(other)
        return Tensor(self._data + other_arr, copy=False)

    def allclose(self, other: "Tensor | np.ndarray", **kwargs) -> bool:
        other_arr = other.data if isinstance(other, Tensor) else np.asarray(other)
        return bool(np.allclose(self._data, other_arr, **kwargs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape})"


def as_ndarray(x: "Tensor | np.ndarray") -> np.ndarray:
    """Accept either a Tensor or a raw ndarray and return the ndarray.

    float32 arrays pass through unwidened — they are the mixed-precision
    kernels' working representation — while everything else (including
    integer arrays and nested lists) is coerced to float64 exactly as
    before.
    """
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, np.ndarray) and x.dtype == np.float32:
        return x
    return np.asarray(x, dtype=np.float64)


def match_dtype(dtype: "np.dtype | type") -> np.dtype:
    """Kernel working dtype for an input array dtype.

    float32 inputs stay float32 (the mixed-precision narrow path);
    everything else computes in float64, exactly as the kernels always
    have.  Kernels use this to coerce secondary operands (factor
    matrices, received blocks) so a float32 tensor is never silently
    re-widened by a float64 operand.
    """
    return np.dtype(np.float32 if np.dtype(dtype) == np.float32
                    else np.float64)


def as_f_contiguous(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when already Fortran-contiguous, else an F-ordered copy.

    The blocked kernels view their input as contiguous Fortran sub-blocks;
    this helper is their layout normalization.  Returning the *same object*
    for compliant inputs matters on the distributed hot path: received
    tensors are read-only zero-copy views backed by shared memory
    (:class:`~repro.mpi.process_transport.ShmArrayView`), and
    ``np.asfortranarray`` would wrap them in a fresh base-class view —
    harmless for data, but this way the no-copy property is explicit and
    regression-testable (``tests/tensor`` asserts identity).
    """
    if arr.flags.f_contiguous:
        return arr
    return np.asfortranarray(arr)


def fortran_view(arr: np.ndarray, mode: int) -> tuple[np.ndarray, int, bool]:
    """The Fortran-contiguous array the local kernels run on.

    Returns ``(f, mode_in_f, reversed)``.  A Fortran-ordered ``arr`` is
    itself; a C-ordered one is its transpose — the same buffer with the
    modes reversed, so ``mode`` becomes ``N - 1 - mode`` and a tensor
    result must be handed back transposed; only a genuinely strided
    ``arr`` is copied (once, to Fortran order).
    """
    if arr.flags.c_contiguous and not arr.flags.f_contiguous:
        return arr.T, arr.ndim - 1 - mode, True
    return as_f_contiguous(arr), mode, False
