"""Dense tensor algebra substrate.

Implements the tensor notation of paper Sec. II-A: mode-n unfoldings in the
paper's layout convention (the mode-1 unfolding of a stored tensor is
column-major), the tensor-times-matrix (TTM) product, mode-n Gram matrices
and triangular (QR) factors, and the truncated symmetric eigensolver used
for factor-matrix computation.
Everything here is sequential; the distributed algorithms in
:mod:`repro.distributed` call these kernels on per-rank local blocks.
"""

from repro.tensor.dense import Tensor, as_f_contiguous, fold, norm, norm_sq, unfold
from repro.tensor.ttm import multi_ttm, ttm
from repro.tensor.gram import gram
from repro.tensor.qr import qr_r
from repro.tensor.eig import (
    EigResult,
    eigendecompose,
    rank_from_tolerance,
)
from repro.tensor.random import low_rank_tensor, random_factor, random_tensor

__all__ = [
    "Tensor",
    "as_f_contiguous",
    "fold",
    "unfold",
    "norm",
    "norm_sq",
    "ttm",
    "multi_ttm",
    "gram",
    "qr_r",
    "EigResult",
    "eigendecompose",
    "rank_from_tolerance",
    "low_rank_tensor",
    "random_factor",
    "random_tensor",
]
