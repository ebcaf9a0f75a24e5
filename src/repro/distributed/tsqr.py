"""Communication-avoiding TSQR and the Gram-free factor kernel (Sec. IX).

The paper's conclusion proposes improving numerical robustness by computing
singular vectors directly instead of via the Gram matrix: "because Y_(n)^T
is typically very tall and skinny, we can compute the SVD using a QR
decomposition as a preprocessing step at roughly twice the cost".  This
module implements that improvement on the distributed substrate:

* :func:`tsqr_r` — the R factor of a tall-skinny QR across a communicator
  (Demmel et al.'s communication-avoiding TSQR; only R is needed here, so
  Q is never formed): a binary reduction of stacked local R factors to
  group rank 0 (partner triangles stacked lower group rank first at
  every node), then a broadcast.

* :func:`dist_mode_svd` — this rank's block row of ``U^(n)`` computed from
  ``Y_(n)^T`` without ever forming it (on a one-rank grid, the sequential
  ``core.sthosvd(method="svd")``).  Every local QR — here and in
  :func:`tsqr_r` — is the streaming, layout-true
  :func:`~repro.tensor.qr.qr_r` kernel: rows of ``Y_(n)^T`` walked in
  cache-sized chunks where the tensor lies and folded into a running
  triangle by LAPACK's blocked triangular-pentagonal QR.  When the mode is undivided (``P_n == 1``)
  the kernel runs on the local block itself; otherwise the local tensors
  travel around the mode-column ring (the shared
  :func:`~repro.distributed.ring.ring_exchange` pipeline, all hops posted
  up front), each rank assembles complete rows of ``Y_(n)^T`` for its
  share of the column range while later hops are still in flight, and
  the kernel runs on that slab at the pipeline tail.  The TSQR tree then
  combines the true-shape R factors over the
  whole grid; a small ``J_n x J_n`` SVD of the final R yields the
  spectrum and this rank's factor rows.

"Roughly twice the cost" is what it now costs: the kernel does twice the
Gram kernel's flops plus an in-cache transpose (measured 2.3-3x ``gram``
on the same view), and a sequential ST-HOSVD through it takes 1.8x the
Gram path on the repo benchmark's ``cli-tjlr`` input (README, "TSQR").
Unlike Alg. 4 + Alg. 5 this path never squares the condition number, so
epsilon-truncation remains reliable down to machine precision.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dist_tensor import DistTensor
from repro.distributed.layout import block_range
from repro.distributed.ring import mode_ring_hops, ring_exchange
from repro.mpi.comm import Communicator
from repro.tensor.dense import as_f_contiguous
from repro.tensor.eig import EigResult, rank_from_tolerance
from repro.tensor.qr import (
    copy_unfolding_rows,
    full_triangle,
    qr_r,
    spectrum_from_r,
)
from repro.util.validation import check_axis, prod


def _fold(comm: Communicator, mine: np.ndarray, other) -> np.ndarray:
    """One tree node: stack two R factors (lower group rank on top) and
    re-factorize, charging the true stacked shape.  Both are at most
    ``n x n`` — the one QR here that is too small to be worth streaming."""
    stacked = np.vstack([mine, np.asarray(other)])
    n = stacked.shape[1]
    r = np.linalg.qr(stacked, mode="r")
    comm.add_flops(2 * stacked.shape[0] * n * n)
    return r


def _tsqr_binary(comm: Communicator, r: np.ndarray) -> np.ndarray:
    """Eliminate-and-broadcast: binary reduction to rank 0, then bcast.

    At round k, ranks with bit k set send their triangle to
    ``rank - 2^k`` and drop out; rank 0 ends with the global R and
    broadcasts it.
    """
    rank, size = comm.rank, comm.size
    step = 1
    while step < size:
        if rank % (2 * step) == 0:
            partner = rank + step
            if partner < size:
                other = comm.recv(source=partner, tag=("tsqr", step))
                r = _fold(comm, r, other)
        else:
            comm.send(r, dest=rank - step, tag=("tsqr", step))
            break  # eliminated; rejoin at the broadcast
        step *= 2
    return np.asarray(comm.bcast(r if rank == 0 else None, root=0))


def _reduce_r(comm: Communicator, r: np.ndarray) -> np.ndarray:
    """Combine every rank's true-shape local R over ``comm`` into the
    global ``n x n`` triangle (non-negative diagonal), on every rank."""
    if comm.size > 1:
        r = _tsqr_binary(comm, r)
    return full_triangle(r)


def tsqr_r(comm: Communicator, local: np.ndarray) -> np.ndarray:
    """R factor of the QR of the row-stacked distributed matrix.

    Every rank passes its local ``m_i x n`` slab (``n`` identical across
    ranks); all ranks return the same ``n x n`` R factor (up to a
    deterministic sign convention on the diagonal).  The local step is
    the streaming :func:`~repro.tensor.qr.qr_r` kernel — the slab is only
    read, in either layout.

    Intermediate R factors keep their true row counts — short local
    slabs (``m_i < n``) stack as-is instead of being zero-padded, so
    each node's flop charge is ``2 (m_a + m_b) n^2`` for the rows it
    actually factorizes; only the final factor is padded to ``n x n``.
    """
    local = np.asarray(local)
    if local.ndim != 2:
        raise ValueError(f"tsqr_r expects a matrix, got ndim={local.ndim}")
    m, n = local.shape
    r = qr_r(local, 1)  # a matrix is the transposed mode-1 unfolding of itself
    comm.add_flops(2 * m * n * n)
    return _reduce_r(comm, r)


def _assemble_slab(dt: DistTensor, mode: int) -> np.ndarray:
    """This rank's share of the rows of ``Y_(n)^T`` — ``(kept columns of
    the local unfolding) x J_n``, F-ordered — assembled from the mode
    column's blocks as they come off the ring.

    Every block lands by :func:`~repro.tensor.qr.copy_unfolding_rows`
    straight from its ``(lead, rows, trail)`` view: same-layout block
    copies in runs of ``lead`` words, no unfolding and no transpose of a
    peer tensor.  The ring pipeline posts all hops up front, so each
    arriving block's scatter overlaps the hops still in flight.
    """
    jn = dt.global_shape[mode]
    col = dt.grid.mode_column(mode)
    pn, my_pn = col.size, col.rank
    local = dt.local
    lead = prod(local.shape[:mode])
    # My share of this processor column's unfolding columns (may be empty
    # when the local block has fewer columns than P_n).
    base, rem = divmod(local.size // local.shape[mode], pn)
    first = my_pn * base + min(my_pn, rem)
    keep = (first, first + base + (1 if my_pn < rem else 0))
    slab = np.empty((keep[1] - keep[0], jn), dtype=local.dtype, order="F")

    def scatter(block: np.ndarray, source: int) -> None:
        start, stop = block_range(jn, pn, source)
        flat = np.reshape(block, (lead, stop - start, -1), order="F")
        copy_unfolding_rows(slab[:, start:stop], flat, *keep)

    hops = mode_ring_hops(pn, my_pn, tag="svd")
    exchanges = ring_exchange(col, local, hops)
    scatter(local, my_pn)
    for hop, w in exchanges:
        scatter(as_f_contiguous(np.asarray(w)), hop.source)
    return slab


def dist_mode_svd(
    dt: DistTensor,
    mode: int,
    rank: int | None = None,
    threshold: float | None = None,
    min_rank: int = 1,
    dtype: np.dtype | type | None = None,
) -> tuple[np.ndarray, EigResult]:
    """Gram-free factor computation: left singular vectors of ``Y_(n)``.

    Drop-in replacement for ``dist_gram`` + ``dist_evecs`` with the same
    return convention (this rank's block row of ``U^(n)``, in ``dtype``
    or else the tensor's, plus the full squared-singular-value spectrum),
    but computed via QR so accuracy survives below sqrt(machine eps).

    Construction: a row of ``Y_(n)^T`` is one column of the unfolding —
    complete on a rank only when ``P_n == 1``, and then the streaming
    :func:`~repro.tensor.qr.qr_r` kernel factorizes the local block where
    it lies: no unfolding, no slab, nothing tensor-sized allocated.  With
    ``P_n > 1`` the ranks of a mode column share the column range but own
    different ``J_n`` rows, so as in Alg. 4 the local tensors travel
    around the mode-column ring — the shared pipelined
    :func:`~repro.distributed.ring.ring_exchange`, all hops posted up
    front, each arriving block scattered into the slab while the
    remaining hops are in flight and the same kernel run on the slab at
    the pipeline tail.  Each rank assembles complete rows for *its* share
    of the column range (a ``1/P_n`` slice, so no row is duplicated
    across the grid), and the global TSQR tree reduces every rank's
    true-shape R to the ``J_n x J_n`` R factor of the exactly-stacked
    ``Y_(n)^T``.
    """
    mode = check_axis(mode, dt.ndim)
    if (rank is None) == (threshold is None):
        raise ValueError("specify exactly one of rank= or threshold=")
    jn = dt.global_shape[mode]
    col = dt.grid.mode_column(mode)
    pn, my_pn = col.size, col.rank
    row_start, row_stop = block_range(jn, pn, my_pn)
    local = dt.local

    if pn == 1:
        m = local.size // jn
        # Live set: the local tensor and the triangle (the kernel's chunk
        # is a constant).
        dt.comm.note_memory(local.size + jn * jn)
        r = qr_r(local, mode)
    else:
        slab = _assemble_slab(dt, mode)
        m = slab.shape[0]
        # Live set mirrors the Gram ring's accounting: local tensor +
        # ``P_n - 1`` in-flight peer tensors + the assembled slab.
        dt.comm.note_memory(pn * local.size + slab.size)
        r = qr_r(slab, 1)
    dt.comm.add_flops(2 * m * jn * jn)
    r = _reduce_r(dt.comm, r)
    # Y_(n)^T = Q R  =>  right singular vectors of R (J_n x J_n, small)
    # are the left singular vectors of Y_(n).
    eig = spectrum_from_r(r)
    dt.comm.add_flops((10 * jn**3) // 3)

    if rank is not None:
        rn = rank
    else:
        rn = max(min_rank, rank_from_tolerance(eig.values, threshold))  # type: ignore[arg-type]
    u_full = eig.leading(rn)
    # Block row in the pipeline's working dtype (cf. dist_evecs).
    return np.array(u_full[row_start:row_stop],
                    dtype=local.dtype if dtype is None else dtype,
                    copy=True), eig
