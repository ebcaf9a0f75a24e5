"""PCA / truncated-SVD baseline compression (two-way, one matricization).

Prior combustion-data compression (paper ref [23]) reduces the data by PCA
on one matricization: pick a mode, unfold, keep the top ``R`` singular
triplets.  Storage is ``R * (I_n + I_hat_n)`` words — the long dimension
``I_hat_n = prod of the other modes`` appears *linearly*, which is exactly
why the method cannot reach Tucker's compression: Tucker pays only
``R_n * I_n`` per mode plus the small core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import normalized_rms
from repro.tensor.dense import as_ndarray, fold, unfold
from repro.util.validation import check_axis, prod


@dataclass(frozen=True)
class PcaCompressed:
    """Truncated SVD of one matricization: ``X_(n) ~ U diag(s) V^T``."""

    mode: int
    shape: tuple[int, ...]
    u: np.ndarray  # I_n x R
    s: np.ndarray  # R
    vt: np.ndarray  # R x I_hat_n

    @property
    def rank(self) -> int:
        return int(self.s.shape[0])

    @property
    def storage_words(self) -> int:
        return self.u.size + self.s.size + self.vt.size

    @property
    def compression_ratio(self) -> float:
        return prod(self.shape) / self.storage_words

    def reconstruct(self) -> np.ndarray:
        mat = (self.u * self.s) @ self.vt
        return fold(mat, self.mode, self.shape)

    def relative_error(self, x: np.ndarray) -> float:
        return normalized_rms(x, self.reconstruct())


class PcaCompressor:
    """Compress by truncated SVD of the mode-``mode`` matricization.

    Parameters
    ----------
    mode:
        Which mode to keep as the "variables" axis (prior work used the
        species mode).
    """

    def __init__(self, mode: int = 0):
        self.mode = mode

    def compress(
        self,
        x: np.ndarray,
        tol: float | None = None,
        rank: int | None = None,
    ) -> PcaCompressed:
        """Truncate to ``rank`` or to the smallest rank meeting ``tol``.

        With ``tol``, the rank is the smallest ``R`` with
        ``sqrt(sum_{i>R} s_i^2) <= tol * ||X||`` — the matrix analogue of
        the paper's eq. (3) criterion.
        """
        if (tol is None) == (rank is None):
            raise ValueError("specify exactly one of tol= or rank=")
        arr = as_ndarray(x)
        mode = check_axis(self.mode, arr.ndim, "mode")
        mat = unfold(arr, mode)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        if rank is None:
            if not tol > 0:  # NaN too
                raise ValueError(f"tol must be positive, got {tol}")
            sq = s**2
            tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
            budget = (tol**2) * float(np.sum(sq))
            rank = int(np.argmax(tail <= budget))
            rank = max(1, rank)
        if not 1 <= rank <= s.shape[0]:
            raise ValueError(f"rank {rank} out of range [1, {s.shape[0]}]")
        return PcaCompressed(
            mode=mode,
            shape=arr.shape,
            u=np.array(u[:, :rank], copy=True),
            s=np.array(s[:rank], copy=True),
            vt=np.array(vt[:rank], copy=True),
        )
