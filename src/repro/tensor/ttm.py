"""Tensor-times-matrix (TTM) products (paper Sec. II-A, IV-C).

``ttm(x, v, n)`` computes ``Y = X x_n V``, equivalently ``Y_(n) = V X_(n)``.
There is one kernel, and it never permutes the tensor: the paper's layout
(Sec. IV-C) makes unfolding *logical*, so the Fortran buffer viewed as
``(lead, I_n, trail)`` — ``lead`` the product of the modes before ``n``,
``trail`` of those after — already is the operand BLAS needs:

* ``lead == 1`` (the first mode): the ``(I_n, trail)`` view is one
  column-major matrix, walked in column panels of
  :data:`~repro.tensor.dense.PANEL_BYTES` (counted on the wider of the
  operand and result panel), one dgemm each, written straight into the
  result's columns.  A single dgemm of this shape — a few dozen rows,
  hundreds of thousands of columns — runs far below the machine's dgemm
  rate; a panel's operands stay in cache.  A column split changes no
  element's sum; on the benchmark's shapes the panels return the one
  dgemm's bits, though BLAS may pick another micro-kernel for a small
  panel than for the whole view, which can move the last bit.
* otherwise: each of the ``trail`` slices is one contiguous ``lead x I_n``
  sub-block (Fig. 3b) and ``block @ V^T`` is its dgemm; one stacked
  ``matmul`` issues them all from C, written straight into the result's
  sub-blocks.  A sub-block taller than one panel (the same
  :data:`~repro.tensor.dense.PANEL_BYTES` rule, counted in rows) is
  walked in row panels instead, one stacked ``matmul`` per panel over all
  the sub-blocks: the last mode is one sub-block of ``lead`` rows, and
  reconstruction's last step, which expands it, would otherwise be one
  dgemm writing the whole result out of cache.  A row split changes no
  element's sum either, with the same caveat: on the benchmark's shapes
  the bits are the one ``matmul``'s, but BLAS may round the rows at the
  end of a panel differently from the same rows inside one large view.
* a C-ordered tensor is the same buffer with the modes reversed
  (``ttm(x, V, n) == ttm(x.T, V, N-1-n).T``), so it rides the same two
  cases and gets a C-ordered result back; only a genuinely strided input
  is copied, once.

Every caller — the sequential drivers, reconstruction, the baselines and
the distributed Alg. 3 — runs this function.  ``multi_ttm`` applies a
sequence of factor matrices along multiple modes, optionally skipping one
(the HOOI inner step ``X x {U^T}_{m != n}``), by default in the
flop-minimal order of :func:`chain_order`.  A step that takes a mode's
extent from ``a`` to ``b`` costs ``2 b |Y|`` flops on the working tensor
``Y`` and scales ``|Y|`` by ``b / a``; exchanging two adjacent steps shows
that the total is least with the steps sorted ascending on ``1/a - 1/b``.
Shrinking steps (projections, the row selections of a partial
reconstruction) therefore run first and expanding ones last, so no
intermediate is larger than the chain's input or its output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.tensor.dense import (
    PANEL_BYTES,
    Tensor,
    as_ndarray,
    fortran_view,
    match_dtype,
)
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


def _panels(total: int, size: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` ranges of ``size`` covering ``range(total)``.

    No range is one wide unless ``total`` is 1: NumPy hands a one-row or
    one-column product to gemv, whose sums associate differently from the
    dgemm's, so a lone remainder joins the range before it.
    """
    start = 0
    while start < total:
        stop = total if total - start <= size + 1 else start + size
        yield start, stop
        start = stop


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
    # Panels of PANEL_BYTES, counted on the wider of operand and result.
    size = max(2, PANEL_BYTES // (max(rows, k, 1) * src.itemsize))
    if lead == 1:
        mat = np.reshape(src, (rows, trail), order="F")
        res = np.reshape(dst, (k, trail), order="F")
        for start, stop in _panels(trail, size):
            np.matmul(vt.T, mat[:, start:stop], out=res[:, start:stop])
    else:
        flat = np.reshape(src, (lead, rows, trail), order="F").transpose(2, 0, 1)
        res = np.reshape(dst, (lead, k, trail), order="F").transpose(2, 0, 1)
        for start, stop in _panels(lead, size):
            np.matmul(flat[:, start:stop], vt, out=res[:, start:stop])
    return out


def chain_order(steps: Iterable[tuple[int, int, int]]) -> list[int]:
    """The modes of a TTM chain in its flop-minimal order.

    ``steps`` holds one ``(mode, a, b)`` per product, taking that mode's
    extent from ``a`` to ``b``.  The modes come back sorted ascending on
    ``1/a - 1/b`` (exact rationals, so the order never depends on
    rounding), ties broken by mode; a step with an empty extent empties the
    tensor and goes first.  Every rank of a distributed chain that passes
    the same global extents gets the same order.
    """

    def key(step: tuple[int, int, int]) -> tuple[Fraction, int]:
        mode, a, b = step
        return (Fraction(b - a, a * b) if a and b else Fraction(-1), mode)

    return [mode for mode, _, _ in sorted(steps, key=key)]


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
        order (mode products commute across distinct modes) up to rounding,
        but cost is not: by default the modes run in the flop-minimal
        :func:`chain_order`.
    """
    arr = as_ndarray(x)
    n_modes = arr.ndim
    if len(matrices) != n_modes:
        raise ValueError(
            f"need one matrix per mode ({n_modes}), got {len(matrices)}"
        )
    if order is None:
        modes = chain_order(
            (m, arr.shape[m],
             _check_ttm_shapes(arr.shape, np.asarray(v), m, transpose))
            for m, v in enumerate(matrices)
            if m != skip and v is not None
        )
    else:
        modes = [check_axis(m, n_modes, "order entry") for m in order]
        if sorted(modes) != list(range(n_modes)):
            raise ValueError(f"order {order} is not a permutation of modes")
    result = arr
    for m in modes:
        if m == skip or matrices[m] is None:
            continue
        result = ttm(result, matrices[m], m, transpose=transpose)
    return result
