"""Higher-Order Orthogonal Iteration — Alg. 2 of the paper.

HOOI is alternating optimization: holding all factors but ``U^(n)`` fixed,
the optimal ``U^(n)`` consists of the leading left singular vectors of the
unfolding of ``Y = X x {U^(m)T}_{m != n}``.  Cycling over modes
monotonically improves the fit.  The paper initializes with ST-HOSVD and
tracks the fit through the identity

    ``||X - G x {U^(n)}||^2 = ||X||^2 - ||G||^2``

(valid for orthonormal factors with the optimal core), stopping when that
quantity stops decreasing, drops below a tolerance, or a maximum number of
iterations is reached.  The paper's observation (Sec. VII-C) — that HOOI
barely improves on ST-HOSVD for combustion data — is reproduced in the
Table II benchmark.

Like :func:`~repro.core.sthosvd.sthosvd`, :func:`hooi` is the parallel
driver (:func:`~repro.distributed.hooi.dist_hooi`) on a one-rank grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.sthosvd import SthosvdResult, one_rank_tensor, sthosvd
from repro.core.tucker import TuckerTensor
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.hooi import dist_hooi
from repro.distributed.sthosvd import DistTucker
from repro.tensor.dense import as_ndarray


@dataclass(frozen=True)
class HooiResult:
    """HOOI output: decomposition, fit history, and convergence flags.

    Attributes
    ----------
    decomposition:
        The refined Tucker decomposition.
    residual_history:
        ``||X||^2 - ||G_k||^2`` after each outer iteration, starting with
        the ST-HOSVD initialization's value (index 0).  Nonincreasing up to
        roundoff.
    n_iterations:
        Outer iterations actually performed.
    converged:
        True if iteration stopped because improvement fell below the
        threshold (rather than hitting ``max_iterations``).
    init:
        The ST-HOSVD initialization result (None if factors were supplied).
    """

    decomposition: TuckerTensor
    residual_history: tuple[float, ...]
    n_iterations: int
    converged: bool
    init: SthosvdResult | None

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.decomposition.ranks

    def error_estimate(self, x_norm: float) -> float:
        """Normalized RMS error from the final fit quantity."""
        if x_norm <= 0:
            raise ValueError(f"x_norm must be positive, got {x_norm}")
        return float(np.sqrt(max(0.0, self.residual_history[-1])) / x_norm)


def hooi(
    x: np.ndarray,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    max_iterations: int = 25,
    improvement_tol: float = 1e-10,
    init: SthosvdResult | None = None,
) -> HooiResult:
    """Higher-order orthogonal iteration (Alg. 2), ST-HOSVD initialized.

    Parameters
    ----------
    x:
        Dense input tensor.
    tol / ranks:
        Passed to the ST-HOSVD initialization (exactly one required unless
        ``init`` is supplied).  After initialization the ranks are *fixed*;
        HOOI refines the subspaces, not the truncation.
    max_iterations:
        Upper bound on outer iterations.
    improvement_tol:
        Stop when the decrease of the normalized residual
        ``(||X||^2 - ||G||^2) / ||X||^2`` between outer iterations falls
        below this value (Alg. 2's "ceases to decrease").
    init:
        Reuse an existing ST-HOSVD result instead of recomputing it.
    """
    arr = as_ndarray(x)
    n_modes = arr.ndim
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    if not improvement_tol >= 0:  # NaN too
        raise ValueError(f"improvement_tol must be >= 0, got {improvement_tol}")

    if init is None:
        # In the sweep order, as dist_hooi initialises.
        init = sthosvd(arr, tol=tol, ranks=ranks, mode_order="natural")
    elif init.decomposition.shape != arr.shape:
        raise ValueError(
            f"init shape {init.decomposition.shape} does not match input "
            f"{arr.shape}"
        )
    dt, flipped = one_rank_tensor(arr)
    step = -1 if flipped else 1
    core = init.decomposition.core.T if flipped else init.decomposition.core
    res = dist_hooi(
        dt,
        max_iterations=max_iterations,
        improvement_tol=improvement_tol,
        init=DistTucker(
            core=DistTensor(dt.grid, core.shape, core),
            factors_local=list(init.decomposition.factors[::step]),
            eigenvalues=list(init.eigenvalues[::step]),
            x_norm_sq=init.x_norm_sq,
            mode_order=tuple(
                n_modes - 1 - m if flipped else m for m in init.mode_order
            ),
        ),
        mode_order=range(n_modes)[::step],
        compute_dtype="float64",  # REPRO_DTYPE does not apply
    )
    t = res.decomposition
    return HooiResult(
        decomposition=TuckerTensor(
            core=t.core.local.T if flipped else t.core.local,
            factors=tuple(t.factors_local[::step]),
        ),
        residual_history=res.residual_history,
        n_iterations=res.n_iterations,
        converged=res.converged,
        init=init,
    )
