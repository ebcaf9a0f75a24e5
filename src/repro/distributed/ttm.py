"""Parallel tensor-times-matrix — Alg. 3 of the paper.

Computes ``Z = Y x_n V`` for a block-distributed ``Y`` and a factor matrix
``V`` in the redundant distribution of Sec. IV-B: each rank passes
``v_local``, its ``K x (local J_n)`` block of ``V`` — the columns matching
its local mode-``n`` rows.  For the decomposition direction ``V = U^(n)T``
this is exactly ``U_local.T`` where ``U_local`` is the rank's block row of
the factor matrix, so no communication is ever needed to stage ``V``.

Two strategies, as in the paper (Sec. V-B):

* ``"blocked"``: loop over the ``P_n`` block rows of ``V``; each iteration
  computes a partial product and reduces it to the ``l``-th member of the
  mode-``n`` processor column.  The intermediate never exceeds the local
  result size.
* ``"reduce_scatter"``: when ``K <= J_n / P_n`` (the intermediate fits), a
  single local multiply followed by one reduce-scatter — fewer messages,
  same bandwidth and flops.

``strategy="auto"`` picks the fast path when the memory condition holds and
the block sizes divide evenly (our reduce-scatter requires equal blocks).
When ``P_n == 1`` there is nothing to reduce: whatever the strategy, the
local :func:`~repro.tensor.ttm.ttm` result *is* the output block (same
flops charged, no words, no messages — as a one-member reduction always
was), mirroring ``dist_gram``'s ``P_n == 1`` branch.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dist_tensor import DistTensor
from repro.distributed.layout import block_range, block_ranges
from repro.mpi.reduce_ops import SUM
from repro.tensor.dense import match_dtype
from repro.tensor.ttm import ttm
from repro.util.validation import check_axis


def _expected_local_cols(dt: DistTensor, mode: int) -> int:
    start, stop = block_range(
        dt.global_shape[mode], dt.grid.dims[mode], dt.grid.coords[mode]
    )
    return stop - start


def dist_ttm(
    dt: DistTensor,
    v_local: np.ndarray,
    mode: int,
    new_dim: int,
    strategy: str = "auto",
) -> DistTensor:
    """Parallel ``Z = Y x_n V`` (Alg. 3).

    Parameters
    ----------
    dt:
        The distributed input tensor ``Y``.
    v_local:
        This rank's ``K x (local J_n)`` block of ``V`` (the block column of
        ``V`` matching the rank's mode-``n`` index range).
    mode:
        The contraction mode ``n``.
    new_dim:
        The global output dimension ``K`` (needed because ``v_local`` only
        shows the local column count).
    strategy:
        ``"blocked"``, ``"reduce_scatter"``, or ``"auto"``.  Irrelevant
        when ``P_n == 1``: the local product is returned as the block.

    Returns
    -------
    DistTensor
        ``Z``, block distributed on the same grid: the output's mode-``n``
        dimension ``K`` is partitioned over the same ``P_n`` processors.
    """
    mode = check_axis(mode, dt.ndim)
    # The factor block follows the tensor's working dtype: a float32
    # pipeline multiplies and reduces narrow blocks end to end.
    v_local = np.asarray(v_local, dtype=match_dtype(dt.local.dtype))
    if v_local.ndim != 2:
        raise ValueError(f"v_local must be a matrix, got ndim={v_local.ndim}")
    if v_local.shape[0] != new_dim:
        raise ValueError(
            f"v_local has {v_local.shape[0]} rows but new_dim={new_dim}"
        )
    local_cols = _expected_local_cols(dt, mode)
    if v_local.shape[1] != local_cols:
        raise ValueError(
            f"v_local has {v_local.shape[1]} columns but this rank owns "
            f"{local_cols} mode-{mode} indices"
        )
    pn = dt.grid.dims[mode]
    if new_dim < pn:
        raise ValueError(
            f"output dimension {new_dim} smaller than grid extent {pn} in "
            f"mode {mode}; choose a smaller grid"
        )

    if strategy not in ("auto", "blocked", "reduce_scatter"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if pn == 1:
        # The mode column is this rank alone: the local product is the
        # block.  Every strategy degenerates to it — a size-1 reduce or
        # reduce-scatter moves nothing — so none of their staging copies
        # are made; ttm's owned F-ordered result is adopted as is.
        z_local = ttm(dt.local, v_local, mode)
        dt.comm.add_flops(2 * new_dim * dt.local.size)
        dt.comm.note_memory(dt.local.size + v_local.size + z_local.size)
        return DistTensor(dt.grid, _out_shape(dt, mode, new_dim), z_local)
    if strategy == "auto":
        even = new_dim % pn == 0
        fits = new_dim <= max(1, dt.global_shape[mode] // pn)
        strategy = "reduce_scatter" if (even and fits) else "blocked"
    if strategy == "reduce_scatter":
        return _ttm_reduce_scatter(dt, v_local, mode, new_dim)
    return _ttm_block_rows(dt, v_local, mode, new_dim)


def _out_shape(dt: DistTensor, mode: int, new_dim: int) -> tuple[int, ...]:
    shape = list(dt.global_shape)
    shape[mode] = new_dim
    return tuple(shape)


def _ttm_block_rows(
    dt: DistTensor,
    v_local: np.ndarray,
    mode: int,
    new_dim: int,
) -> DistTensor:
    """Alg. 3: P_n iterations of (local TTM block row, reduce to member l).

    Every block row's reduce is posted non-blocking and completed only
    after the *next* block's local TTM, so the reduce's messages travel
    behind the dgemms.  Contributions fold in group-rank order at each
    root and charge what a blocking ``reduce`` would.
    """
    col = dt.grid.mode_column(mode)
    pn, my_pn = col.size, col.rank
    local = dt.local
    z_local: np.ndarray | None = None
    z_words: int | None = None  # size of this rank's reduced block row
    pending = None  # (root, request) of the previous block row's reduce
    inflight_w = 0  # previous block row still held by its pending reduce
    for ell, (start, stop) in enumerate(block_ranges(new_dim, pn)):
        # Local mode-n TTM with the ell-th block row of V (layout-respecting
        # dgemms, Sec. IV-C).
        w = ttm(local, v_local[start:stop], mode)
        dt.comm.add_flops(2 * (stop - start) * local.size)
        # M_TTM live set: local input + factor block + temporary + result,
        # plus the previous block row, which stays alive in its posted
        # reduce until the wait below (the same memory-for-time trade
        # dist_gram's pipelined ring notes).
        dt.comm.note_memory(
            local.size
            + v_local.size
            + w.size
            + inflight_w
            + (z_words if z_words is not None else w.size)
        )
        if ell == my_pn:
            z_words = w.size
        inflight_w = w.size
        req = col.ireduce(w, SUM, root=ell)
        if pending is not None:
            prev_root, prev_req = pending
            reduced = prev_req.wait()
            if prev_root == my_pn:
                assert reduced is not None
                z_local = reduced
        pending = (ell, req)
    if pending is not None:
        prev_root, prev_req = pending
        reduced = prev_req.wait()
        if prev_root == my_pn:
            assert reduced is not None
            z_local = reduced
    assert z_local is not None
    return DistTensor(dt.grid, _out_shape(dt, mode, new_dim), z_local)


def _ttm_reduce_scatter(
    dt: DistTensor,
    v_local: np.ndarray,
    mode: int,
    new_dim: int,
) -> DistTensor:
    """Sec. V-B fast path: one local multiply + one reduce-scatter.

    Requires ``P_n | K``.  The full-K intermediate is formed locally (the
    memory condition ``K <= J_n / P_n`` guarantees it is no larger than the
    local input tensor), then reduce-scattered down the processor column.
    """
    col = dt.grid.mode_column(mode)
    pn = col.size
    if new_dim % pn != 0:
        raise ValueError(
            f"reduce_scatter strategy requires {pn} | {new_dim}; use 'blocked'"
        )
    local = dt.local
    w = ttm(local, v_local, mode)
    dt.comm.add_flops(2 * new_dim * local.size)
    # Reduce-scatter along the mode axis: move mode to front so equal blocks
    # along axis 0 correspond to the K partition.
    z_front = col.reduce_scatter_block(_mode_front(w, mode), SUM)
    z_local = np.moveaxis(z_front, 0, mode)
    return DistTensor(dt.grid, _out_shape(dt, mode, new_dim), z_local)


def _mode_front(w: np.ndarray, mode: int) -> np.ndarray:
    """``w`` with ``mode`` moved to axis 0, copied only when necessary.

    For ``mode == 0`` (a Fortran-ordered TTM result) the moved view *is*
    the array, so the historical unconditional ``ascontiguousarray`` was a
    full extra copy of the intermediate on the hot path; the collectives
    accept any contiguous layout, so only a genuinely strided view (mode
    moved from the interior) still needs materializing.
    """
    w_front = np.moveaxis(w, mode, 0)
    if w_front.flags.c_contiguous or w_front.flags.f_contiguous:
        return w_front
    return np.ascontiguousarray(w_front)
