"""Tensor-times-matrix (TTM) products (paper Sec. II-A, IV-C).

``ttm(x, v, n)`` computes ``Y = X x_n V``, equivalently ``Y_(n) = V X_(n)``.
There is one kernel, and it never permutes the tensor: the paper's layout
(Sec. IV-C) makes unfolding *logical*, so the Fortran buffer viewed as
``(lead, I_n, trail)`` — ``lead`` the product of the modes before ``n``,
``trail`` of those after — already is the operand BLAS needs:

* ``lead == 1`` (the first mode): the ``(I_n, trail)`` view is one
  column-major matrix and the whole product is one dgemm.
* otherwise: each of the ``trail`` slices is one contiguous ``lead x I_n``
  sub-block (Fig. 3b) and ``block @ V^T`` is its dgemm; one stacked
  ``matmul`` issues them all from C, written straight into the result's
  sub-blocks.  The last mode is the one-slice case of the same call.
* a C-ordered tensor is the same buffer with the modes reversed
  (``ttm(x, V, n) == ttm(x.T, V, N-1-n).T``), so it rides the same two
  cases and gets a C-ordered result back; only a genuinely strided input
  is copied, once.

Every caller — the sequential drivers, reconstruction, the baselines and
the distributed Alg. 3 — runs this function.  ``multi_ttm`` applies a
sequence of factor matrices along multiple modes, optionally skipping one
(the HOOI inner step ``X x {U^T}_{m != n}``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.dense import Tensor, as_ndarray, fortran_view, match_dtype
from repro.util.validation import check_axis, prod


def _check_ttm_shapes(
    shape: tuple[int, ...], v: np.ndarray, mode: int, transpose: bool
) -> int:
    """Validate dims of ``X x_n V`` (or V^T) and return the output mode size."""
    if v.ndim != 2:
        raise ValueError(f"TTM matrix must be 2-D, got ndim={v.ndim}")
    inner = v.shape[0] if transpose else v.shape[1]
    out = v.shape[1] if transpose else v.shape[0]
    if inner != shape[mode]:
        raise ValueError(
            f"TTM dimension mismatch in mode {mode}: tensor has {shape[mode]}, "
            f"matrix{'(transposed)' if transpose else ''} expects {inner}"
        )
    return out


def ttm(
    x: "Tensor | np.ndarray",
    v: np.ndarray,
    mode: int,
    transpose: bool = False,
) -> np.ndarray:
    """Mode-``mode`` product ``X x_n V`` (or ``X x_n V^T`` if ``transpose``).

    Parameters
    ----------
    x:
        Input tensor of shape ``I_1 x ... x I_N``.
    v:
        Matrix of shape ``K x I_n`` (or ``I_n x K`` with ``transpose=True``,
        the common case for factor matrices ``U^(n)`` of size ``I_n x R_n``).
    mode:
        The mode to contract.

    Returns
    -------
    np.ndarray
        Tensor of shape ``I_1 x ... x I_{n-1} x K x I_{n+1} x ... x I_N``,
        owned and contiguous in ``x``'s layout (Fortran-ordered unless
        ``x`` is C-ordered).  ``x`` is only read — it may be a read-only
        shared-memory view — and is copied only when it is strided.
    """
    arr = as_ndarray(x)
    mode = check_axis(mode, arr.ndim)
    v = np.asarray(v, dtype=match_dtype(arr.dtype))
    k = _check_ttm_shapes(arr.shape, v, mode, transpose)
    new_shape = arr.shape[:mode] + (k,) + arr.shape[mode + 1 :]
    src, mode, reversed_ = fortran_view(arr, mode)
    out = np.empty(new_shape, dtype=arr.dtype, order="C" if reversed_ else "F")
    dst = out.T if reversed_ else out
    rows = src.shape[mode]
    lead = prod(src.shape[:mode])  # columns per sub-block
    trail = prod(src.shape[mode + 1 :])  # number of sub-blocks
    # V^T, C-contiguous: the right-hand operand of every sub-block's dgemm.
    vt = np.ascontiguousarray(v if transpose else v.T)
    if lead == 1:
        np.matmul(
            vt.T,
            np.reshape(src, (rows, trail), order="F"),
            out=np.reshape(dst, (k, trail), order="F"),
        )
    else:
        np.matmul(
            np.reshape(src, (lead, rows, trail), order="F").transpose(2, 0, 1),
            vt,
            out=np.reshape(dst, (lead, k, trail), order="F").transpose(2, 0, 1),
        )
    return out


def multi_ttm(
    x: "Tensor | np.ndarray",
    matrices: Sequence[np.ndarray | None],
    skip: int | None = None,
    transpose: bool = False,
    order: Sequence[int] | None = None,
) -> np.ndarray:
    """Multiply ``x`` by a matrix in every mode: ``X x {V^(n)}``.

    Parameters
    ----------
    matrices:
        One matrix per mode (entries may be ``None`` to skip that mode).
    skip:
        Additionally skip this mode (HOOI's ``m != n`` product).
    transpose:
        Apply each matrix transposed (``X x {U^(n)T}``), the projection
        direction used throughout ST-HOSVD and HOOI.
    order:
        Sequence in which modes are processed.  The result is independent of
        order (mode products commute across distinct modes) but cost is not;
        defaults to increasing mode.
    """
    arr = as_ndarray(x)
    n_modes = arr.ndim
    if len(matrices) != n_modes:
        raise ValueError(
            f"need one matrix per mode ({n_modes}), got {len(matrices)}"
        )
    modes = list(range(n_modes)) if order is None else [
        check_axis(m, n_modes, "order entry") for m in order
    ]
    if order is not None and sorted(modes) != list(range(n_modes)):
        raise ValueError(f"order {order} is not a permutation of modes")
    result = arr
    for m in modes:
        if m == skip or matrices[m] is None:
            continue
        result = ttm(result, matrices[m], m, transpose=transpose)
    return result
