"""Parallel leading-eigenvector computation — Alg. 5 of the paper.

After :func:`~repro.distributed.gram.dist_gram`, each rank holds the block
row of ``S`` matching its mode-``n`` tensor rows.  Alg. 5 all-gathers the
full ``I_n x I_n`` matrix across the mode-``n`` processor column, solves the
(small) symmetric eigenproblem *redundantly* on every rank — ``I_n`` is
assumed modest, the paper's working assumption is ``I_n <= 2000`` — and
extracts the local block row of the factor matrix, which is exactly the
redundant factor distribution of Sec. IV-B.

Rank selection is either prescribed or chosen "on the fly" from the
eigenvalue tail against the epsilon budget (Alg. 1 line 5), and is
identical on every rank because all ranks solve the same eigenproblem.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dist_tensor import DistTensor
from repro.distributed.layout import block_range
from repro.tensor.eig import EigResult, eigendecompose, rank_from_tolerance
from repro.util.flops import eig_flops
from repro.util.validation import check_axis


def dist_evecs(
    dt: DistTensor,
    s_rows: np.ndarray,
    mode: int,
    rank: int | None = None,
    threshold: float | None = None,
    min_rank: int = 1,
    dtype: np.dtype | type | None = None,
) -> tuple[np.ndarray, EigResult]:
    """Parallel eigenvectors (Alg. 5).

    Parameters
    ----------
    dt:
        The distributed tensor whose grid defines the data distribution
        (its *current* mode-``mode`` extent must match ``s_rows``).
    s_rows:
        This rank's block row of the Gram matrix from :func:`dist_gram`.
    rank / threshold:
        Exactly one must be given: a prescribed ``R_n`` or the epsilon
        budget ``eps^2 ||X||^2 / N`` for on-the-fly truncation.
    min_rank:
        Floor for threshold-based selection.  The driver passes the grid
        extent ``P_n``: the block distribution needs at least one output
        row per processor, so very aggressive truncations are rounded up
        (a strictly better approximation, never worse).
    dtype:
        dtype of the returned block row (default the Gram matrix's).

    Returns
    -------
    (u_local, eig):
        ``u_local`` is this rank's block row of ``U^(n)`` (shape
        ``local I_n x R_n``); ``eig`` the full spectrum (identical on all
        ranks), which drives error accounting.
    """
    mode = check_axis(mode, dt.ndim)
    if (rank is None) == (threshold is None):
        raise ValueError("specify exactly one of rank= or threshold=")
    col = dt.grid.mode_column(mode)
    jn = dt.global_shape[mode]
    if s_rows.ndim != 2 or s_rows.shape[1] != jn:
        raise ValueError(
            f"s_rows shape {s_rows.shape} does not match mode-{mode} "
            f"dimension {jn}"
        )

    # All-gather the full Gram matrix over the processor column (line 4).
    pieces = col.allgather(s_rows)
    s_full = np.vstack(pieces)
    if s_full.shape != (jn, jn):
        raise ValueError(
            f"gathered Gram matrix has shape {s_full.shape}, expected "
            f"({jn}, {jn})"
        )
    # Redundant local eigendecomposition (line 5); charge the paper's
    # (10/3) I_n^3 flops on every rank since every rank solves it.
    eig = eigendecompose(s_full)
    dt.comm.add_flops(eig_flops(jn))
    if rank is not None:
        rn = rank
    else:
        rn = max(min_rank, rank_from_tolerance(eig.values, threshold))  # type: ignore[arg-type]
    u_full = eig.leading(rn)
    # Extract this rank's block row (line 6), by default in the Gram
    # matrix's working dtype: the eigensolve always runs in float64 (it is
    # rank-local and cheap), but a float32 pipeline ships and applies
    # float32 factors so the downstream TTM keeps its narrow words.
    start, stop = block_range(jn, col.size, col.rank)
    u_local = np.array(
        u_full[start:stop], dtype=s_rows.dtype if dtype is None else dtype,
        copy=True,
    )
    # M_EIG live set: local S block + gathered S + full U + local U block.
    dt.comm.note_memory(s_rows.size + s_full.size + u_full.size + u_local.size)
    return u_local, eig
