"""Mode-n Gram matrices ``S = X_(n) X_(n)^T`` (paper Algs. 1-2, Sec. V-C).

The Gram matrix is the workhorse of both ST-HOSVD and HOOI: its leading
eigenvectors are the factor matrices, and its eigenvalue tails drive the
epsilon-based rank selection.  There is one kernel, and it never builds
the unfolding: on the Fortran buffer viewed as ``(lead, I_n, trail)``

* first mode (``lead == 1``): the ``(I_n, trail)`` view *is* the unfolding,
  column-major — one syrk, zero copies;
* last mode (``trail == 1``): the ``(lead, I_n)`` view is its transpose —
  one syrk, zero copies;
* interior modes: the unfolding is ``trail`` contiguous ``lead x I_n``
  sub-blocks (Fig. 3b) and ``S`` is the sum of their ``block^T block``
  (the paper's multiple-dsyrk strategy).  One syrk per sub-block is 7-20x
  too slow when the blocks are skinny, so consecutive sub-blocks are
  stacked into one reused panel of
  :data:`~repro.tensor.dense.PANEL_BYTES` and each panel is
  one syrk; a single sub-block already that large is multiplied where it
  lies.  Nothing tensor-sized is ever allocated.

C-ordered tensors are the same buffer with the modes reversed
(``gram(x, n) == gram(x.T, N-1-n)``) and ride the same three cases; only
a genuinely strided input is copied, once.

Why the panel is a constant and not a knob: it only has to be large
enough that a syrk amortises its dispatch and small enough to stay in
cache while it is packed and multiplied.  Measured from 64 KB to 4 MB on
the views the drivers produce, 512 KB is within a few percent of the best
on every one (the README's "Local kernels" table), so there is no
workload for a second value.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.dense import PANEL_BYTES, Tensor, as_ndarray, fortran_view
from repro.util.validation import check_axis, prod

#: Shortest sub-block column (in words) still packed as one contiguous run.
_MIN_RUN = 16


def gram(x: "Tensor | np.ndarray", mode: int) -> np.ndarray:
    """Gram matrix of the mode-``mode`` unfolding (``I_n x I_n``, symmetric PSD)."""
    arr = as_ndarray(x)
    mode = check_axis(mode, arr.ndim)
    src, mode, _ = fortran_view(arr, mode)
    rows = src.shape[mode]
    lead = prod(src.shape[:mode])  # columns per sub-block
    trail = prod(src.shape[mode + 1 :])  # number of sub-blocks
    if lead == 1:
        mat = np.reshape(src, (rows, trail), order="F")
        s = mat @ mat.T
    elif trail == 1:
        mat = np.reshape(src, (lead, rows), order="F")
        s = mat.T @ mat
    else:
        s = _gram_interior(np.reshape(src, (lead, rows, trail), order="F"))
    # Enforce exact symmetry: dgemm output can differ in the last ulp across
    # the diagonal, which would leak into eigensolver determinism.
    return (s + s.T) * 0.5


def _gram_interior(flat: np.ndarray) -> np.ndarray:
    """``sum_b flat[:, :, b].T @ flat[:, :, b]``, one syrk per panel."""
    lead, rows, trail = flat.shape
    per_panel = max(1, PANEL_BYTES // (lead * rows * flat.itemsize))
    s = np.zeros((rows, rows), dtype=flat.dtype)
    part = np.empty_like(s)
    # Sub-blocks already a panel wide are never packed: no scratch.
    scratch = np.empty(
        per_panel * lead * rows if per_panel > 1 else 0, dtype=flat.dtype
    )
    for start in range(0, trail, per_panel):
        count = min(per_panel, trail - start)
        blocks = flat[:, :, start : start + count]
        used = scratch[: count * lead * rows]
        # Stack the panel's sub-blocks into one (count * lead) x I_n matrix.
        # Column-major keeps each sub-block column a contiguous run of
        # `lead` words; below _MIN_RUN words such runs are all loop
        # overhead, and the sub-blocks are transposed into row-major runs
        # of I_n instead.  A lone sub-block is that matrix already.
        if count == 1:
            stacked = blocks[:, :, 0]
        elif lead >= _MIN_RUN:
            stacked = np.reshape(used, (lead * count, rows), order="F")
            np.reshape(stacked, (lead, count, rows), order="F")[...] = (
                blocks.transpose(0, 2, 1)
            )
        else:
            stacked = np.reshape(used, (count * lead, rows))
            np.reshape(stacked, (count, lead, rows))[...] = (
                blocks.transpose(2, 0, 1)
            )
        s += np.matmul(stacked.T, stacked, out=part)
    return s
