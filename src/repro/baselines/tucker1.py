"""Tucker1 (single-mode truncation) baseline — paper Sec. II-B.

Tucker1 is the special case of Tucker where only one mode is compressed:
``X ~ G x_n U^(n)`` with ``G = X x_n U^(n)T``.  Equivalent in content to
the PCA baseline but stored in Tucker form; it isolates how much of the
full method's advantage comes from compressing *all* modes versus one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import normalized_rms
from repro.core.tucker import TuckerTensor
from repro.tensor.dense import as_ndarray, norm_sq
from repro.tensor.eig import eigendecompose, rank_from_tolerance
from repro.tensor.gram import gram
from repro.tensor.ttm import ttm
from repro.util.validation import check_axis, prod


@dataclass(frozen=True)
class Tucker1Compressed:
    """Single-mode Tucker truncation: core + one factor matrix."""

    mode: int
    shape: tuple[int, ...]
    factor: np.ndarray  # I_n x R
    core: np.ndarray  # shape with mode n reduced to R

    @property
    def rank(self) -> int:
        return int(self.factor.shape[1])

    @property
    def storage_words(self) -> int:
        return self.core.size + self.factor.size

    @property
    def compression_ratio(self) -> float:
        return prod(self.shape) / self.storage_words

    def reconstruct(self) -> np.ndarray:
        return ttm(self.core, self.factor, self.mode)

    def relative_error(self, x: np.ndarray) -> float:
        return normalized_rms(x, self.reconstruct())

    def to_tucker(self) -> TuckerTensor:
        """Express as a full TuckerTensor (identity factors elsewhere)."""
        factors = [
            np.eye(s) if n != self.mode else self.factor
            for n, s in enumerate(self.shape)
        ]
        return TuckerTensor(core=self.core, factors=tuple(factors))


class Tucker1Compressor:
    """Compress one mode with the paper's Gram-eigenvector kernel."""

    def __init__(self, mode: int = 0):
        self.mode = mode

    def compress(
        self,
        x: np.ndarray,
        tol: float | None = None,
        rank: int | None = None,
    ) -> Tucker1Compressed:
        if (tol is None) == (rank is None):
            raise ValueError("specify exactly one of tol= or rank=")
        arr = as_ndarray(x)
        mode = check_axis(self.mode, arr.ndim, "mode")
        eig = eigendecompose(gram(arr, mode))
        if rank is None:
            if not tol > 0:  # NaN too
                raise ValueError(f"tol must be positive, got {tol}")
            x_norm_sq = norm_sq(arr)
            rank = rank_from_tolerance(eig.values, (tol**2) * x_norm_sq)
        factor = eig.leading(rank)
        core = ttm(arr, factor, mode, transpose=True)
        return Tucker1Compressed(mode=mode, shape=arr.shape, factor=factor, core=core)
