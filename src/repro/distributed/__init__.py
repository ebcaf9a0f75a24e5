"""Distributed-memory parallel Tucker decomposition (paper Secs. IV-VI).

These modules run on the simulated MPI runtime of :mod:`repro.mpi` and
implement the paper's parallel system:

* :mod:`repro.distributed.layout` — block distributions of tensors and the
  redundant factor-matrix distribution (Sec. IV).
* :class:`DistTensor` — a block-distributed dense tensor whose unfoldings
  are logical (no data movement).
* :func:`dist_ttm` — parallel TTM, Alg. 3 (blocked row-by-row reduce, plus
  the single reduce-scatter fast path of Sec. V-B).
* :func:`dist_gram` — parallel Gram, Alg. 4 (ring exchange + all-reduce).
* :func:`dist_evecs` — parallel eigenvectors, Alg. 5 (all-gather +
  redundant eigensolve).
* :func:`dist_sthosvd` / :func:`dist_hooi` — the full parallel algorithms.
* :func:`choose_grid` — processor-grid selection heuristics (Sec. VIII-B);
  :func:`self_grid` — the one-rank grid.
* :func:`ring_exchange` — the pipelined mode-column ring the Gram and
  TSQR/SVD kernels share; with the blocked TTM's posted reduces it hides
  their communication behind the local dgemms.

On :func:`self_grid` (one rank, every collective an identity) the drivers
are the sequential algorithms, which is how :mod:`repro.core` runs them.
"""

from repro.distributed.layout import block_range, block_ranges, local_block
from repro.distributed.ring import RingHop, mode_ring_hops, ring_exchange
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.ttm import dist_ttm
from repro.distributed.gram import dist_gram
from repro.distributed.evecs import dist_evecs
from repro.distributed.sthosvd import DistTucker, dist_sthosvd
from repro.distributed.hooi import dist_hooi
from repro.distributed.grid import choose_grid, self_grid
from repro.distributed.tsqr import dist_mode_svd, tsqr_r

__all__ = [
    "block_range",
    "block_ranges",
    "local_block",
    "RingHop",
    "mode_ring_hops",
    "ring_exchange",
    "DistTensor",
    "dist_ttm",
    "dist_gram",
    "dist_evecs",
    "DistTucker",
    "dist_sthosvd",
    "dist_hooi",
    "choose_grid",
    "self_grid",
    "dist_mode_svd",
    "tsqr_r",
]
