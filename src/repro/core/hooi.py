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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.sthosvd import SthosvdResult, sthosvd
from repro.core.tucker import TuckerTensor
from repro.tensor.dense import as_ndarray, norm_sq
from repro.tensor.eig import eigendecompose
from repro.tensor.gram import gram
from repro.tensor.ttm import multi_ttm, ttm
from repro.util.validation import check_shape_like


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
    if improvement_tol < 0:
        raise ValueError(f"improvement_tol must be >= 0, got {improvement_tol}")

    if init is None:
        init = sthosvd(arr, tol=tol, ranks=ranks)
    else:
        if init.decomposition.shape != arr.shape:
            raise ValueError(
                f"init shape {init.decomposition.shape} does not match input "
                f"{arr.shape}"
            )
    target_ranks = check_shape_like(init.decomposition.ranks, "ranks")
    factors = [np.array(f, copy=True) for f in init.decomposition.factors]
    core = np.array(init.decomposition.core, copy=True)

    x_norm_sq = norm_sq(arr)
    history = [max(0.0, x_norm_sq - norm_sq(core))]

    converged = False
    iterations = 0
    for _ in range(max_iterations):
        y = None
        for n in range(n_modes):
            # Y = X x {U^(m)T} for m != n (Alg. 2 line 5).
            y = multi_ttm(arr, factors, skip=n, transpose=True)
            s = gram(y, n)
            eig = eigendecompose(s)
            factors[n] = eig.leading(target_ranks[n])
        # Core reuses the last inner iteration's Y (Alg. 2 line 9): that Y
        # already has every mode but N-1 projected.
        assert y is not None
        core = ttm(y, factors[n_modes - 1], n_modes - 1, transpose=True)
        iterations += 1
        residual = max(0.0, x_norm_sq - norm_sq(core))
        history.append(residual)
        if (history[-2] - history[-1]) / x_norm_sq < improvement_tol:
            converged = True
            break

    return HooiResult(
        decomposition=TuckerTensor(core=core, factors=tuple(factors)),
        residual_history=tuple(history),
        n_iterations=iterations,
        converged=converged,
        init=init,
    )
