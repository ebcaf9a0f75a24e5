"""Truncated HOSVD (T-HOSVD) baseline — paper Sec. II-B.

The classical De Lathauwer et al. truncation: every factor matrix comes from
the Gram matrix of the *original* tensor's unfolding (no sequential
shrinking), then the core is ``G = X x {U^(n)T}``.  ST-HOSVD produces the
same error guarantee at lower cost; T-HOSVD is kept as the baseline the
paper's error bound (eq. 3) is stated for, and as a comparison point in the
ablation benches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.sthosvd import SthosvdResult
from repro.core.tucker import TuckerTensor
from repro.tensor.dense import as_ndarray, norm_sq
from repro.tensor.eig import eigendecompose, rank_from_tolerance
from repro.tensor.gram import gram
from repro.tensor.ttm import multi_ttm
from repro.util.validation import check_shape_like


def hosvd(
    x: np.ndarray,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
) -> SthosvdResult:
    """Truncated HOSVD with epsilon- or rank-based truncation.

    Returns the same result type as :func:`repro.core.sthosvd.sthosvd`; for
    T-HOSVD the recorded eigenvalues are the spectra of the *original*
    tensor's unfoldings in every mode, so ``error_estimate()`` returns the
    eq. (3) upper bound rather than the exact error.
    """
    arr = as_ndarray(x)
    n_modes = arr.ndim
    if (tol is None) == (ranks is None):
        raise ValueError("specify exactly one of tol= or ranks=")
    if tol is not None and not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    if ranks is not None:
        ranks = check_shape_like(ranks, "ranks")
        if len(ranks) != n_modes:
            raise ValueError(f"need {n_modes} ranks, got {len(ranks)}")
        for r, s in zip(ranks, arr.shape):
            if r > s:
                raise ValueError(f"rank {r} exceeds dimension {s}")

    x_norm_sq = norm_sq(arr)
    x_norm = float(np.sqrt(x_norm_sq))
    threshold = (tol**2) * (x_norm**2) / n_modes if tol is not None else None

    factors: list[np.ndarray] = []
    eigenvalues: list[np.ndarray] = []
    for n in range(n_modes):
        eig = eigendecompose(gram(arr, n))
        rn = (
            rank_from_tolerance(eig.values, threshold)
            if threshold is not None
            else ranks[n]  # type: ignore[index]
        )
        factors.append(eig.leading(rn))
        eigenvalues.append(eig.values)

    core = multi_ttm(arr, factors, transpose=True)
    return SthosvdResult(
        decomposition=TuckerTensor(core=core, factors=tuple(factors)),
        eigenvalues=tuple(eigenvalues),
        mode_order=tuple(range(n_modes)),
        x_norm_sq=x_norm_sq,
    )
