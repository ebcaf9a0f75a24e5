"""Parallel Gram matrix — Alg. 4 of the paper.

Computes ``S = Y_(n) Y_(n)^T`` for a block-distributed tensor without any
tensor redistribution.  Ranks in the same mode-``n`` processor column own
the same columns of the unfolding but different row blocks; the local
tensors are passed around that column in a ring ((P_n - 1) shifts), each
step contributing one ``(my rows) x (peer rows)`` block of this column's
contribution to ``S``.  Summing contributions across the mode-``n``
processor row (an all-reduce) yields this rank's *block row* ``S[rows, :]``
of the Gram matrix, replicated across its processor row — exactly the
input distribution Alg. 5 expects.

The ring itself is the shared :func:`~repro.distributed.ring.ring_exchange`
pipeline (also driving :func:`~repro.distributed.tsqr.dist_mode_svd`):
every hop's exchange is posted before the diagonal dgemm and each block
multiply overlaps the remaining in-flight hops.

When ``P_n == 1`` the ring disappears: one symmetric local Gram (dsyrk-
style, exploiting symmetry) followed by the all-reduce, the fully-symmetric
fast path the paper highlights.  That product, and the ring's diagonal
block, is the sequential :func:`~repro.tensor.gram.gram` kernel run
on the local block where it lies; only the off-diagonal ``(mine, peer)``
products need the two unfoldings as matrices.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dist_tensor import DistTensor
from repro.distributed.layout import block_ranges
from repro.distributed.ring import (
    mode_ring_hops,
    ring_exchange,
    unfold_peer as _unfold_peer,
)
from repro.mpi.reduce_ops import SUM
from repro.tensor.gram import gram
from repro.util.validation import check_axis


def dist_gram(dt: DistTensor, mode: int) -> np.ndarray:
    """Parallel ``S = Y_(n) Y_(n)^T`` (Alg. 4).

    Returns this rank's block row ``S[my mode-n rows, :]`` of the global
    ``J_n x J_n`` Gram matrix (identical on all ranks sharing the same
    mode-``n`` grid coordinate).

    Every ring step sends the *same* local tensor, so the ring posts all
    hops' exchanges up front and every dgemm computes with the remaining
    exchanges in flight — no receive ever idles the rank once its peers
    have posted.  Charges and fold order are those of the blocking ring;
    the price is memory, not time: the ring holds ``P_n - 1`` peer blocks
    in flight, and the noted ``M_GRAM`` live set counts them all.  The
    paper's eq. (2) bound assumes one; the two agree at ``P_n <= 2``.
    """
    mode = check_axis(mode, dt.ndim)
    col = dt.grid.mode_column(mode)
    row = dt.grid.mode_row(mode)
    pn, my_pn = col.size, col.rank
    jn = dt.global_shape[mode]
    ranges = block_ranges(jn, pn)
    local = dt.local
    my_rows = local.shape[mode]
    my_cols = local.size // my_rows
    inflight = 1

    blocks: list[np.ndarray | None] = [None] * pn
    if pn == 1:
        # Fully symmetric local Gram (half the flops of the general case).
        blocks[0] = gram(local, mode)
        dt.comm.add_flops(my_rows * (my_rows + 1) * my_cols)
    else:
        # Full ring (Alg. 4 lines 6-12) on the shared pipeline.  The
        # exchange generator posts every hop before the first block is
        # consumed — the diagonal dgemm then runs with all hops in
        # flight, and each peer multiply overlaps the rest.
        exchanges = ring_exchange(col, local, mode_ring_hops(pn, my_pn))
        blocks[my_pn] = gram(local, mode)
        dt.comm.add_flops(2 * my_rows**2 * my_cols)
        my_unf = dt.local_unfolding(mode)  # (my rows) x (local columns)
        for hop, w in exchanges:
            w_unf = _unfold_peer(w, mode)
            blocks[hop.source] = my_unf @ w_unf.T
            dt.comm.add_flops(2 * my_rows * w_unf.shape[0] * my_cols)
        inflight = pn - 1

    # Assemble the (my rows) x J_n slab, ordering peer blocks by their global
    # row ranges, then sum contributions over the processor row.
    slab = np.empty((my_rows, jn), dtype=local.dtype)
    for k, (start, stop) in enumerate(ranges):
        slab[:, start:stop] = blocks[k]
    # M_GRAM live set: local tensor + in-flight peer tensors + V + S.
    dt.comm.note_memory((1 + inflight) * local.size + 2 * slab.size)
    return np.asarray(row.allreduce(slab, SUM))
