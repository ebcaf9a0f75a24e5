"""Parallel HOOI — Alg. 2 on the Sec. V parallel kernels.

Initialized by the parallel ST-HOSVD, each outer iteration updates every
factor matrix from the Gram of ``Y = X x {U^(m)T}_{m != n}`` (a chain of
N-1 distributed TTMs — no redistribution anywhere), then computes the core
from the final inner iteration's ``Y`` and tracks the fit through
``||X||^2 - ||G||^2`` (Alg. 2 line 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.precision import resolve_compute_dtype
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.sthosvd import (
    DistTucker,
    _hooi_sweep,
    dist_sthosvd,
    resolve_mode_order,
)


@dataclass
class DistHooiResult:
    """Parallel HOOI output (mirrors :class:`repro.core.hooi.HooiResult`)."""

    decomposition: DistTucker
    residual_history: tuple[float, ...]
    n_iterations: int
    converged: bool

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.decomposition.ranks

    def error_estimate(self) -> float:
        x_norm = self.decomposition.x_norm
        if x_norm <= 0:
            raise ValueError("invalid stored x_norm")
        return float(np.sqrt(max(0.0, self.residual_history[-1])) / x_norm)


def dist_hooi(
    dt: DistTensor,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    max_iterations: int = 25,
    improvement_tol: float = 1e-10,
    init: DistTucker | None = None,
    ttm_strategy: str = "auto",
    method: str = "gram",
    compute_dtype: str | None = None,
    mode_order: Sequence[int] | None = None,
) -> DistHooiResult:
    """Parallel higher-order orthogonal iteration (Alg. 2).

    All ranks must call collectively with identical arguments.  Ranks are
    fixed by the ST-HOSVD initialization (or ``init``); iteration stops when
    the normalized fit improvement falls below ``improvement_tol`` or after
    ``max_iterations`` outer iterations.  ``method="svd"`` uses the
    TSQR-based factor kernel for both the initialization and the inner
    updates (the Sec. IX numerical improvement).

    ``compute_dtype=`` selects the kernel precision (default the run's
    ``RuntimeConfig.compute_dtype`` / ``REPRO_DTYPE``).  ``"mixed"`` runs the
    ST-HOSVD initialization in float32 and the outer iterations in
    float64: the HOOI sweeps against the original tensor *are* iterative
    refinement, so no separate refinement pass is needed (the cheap init
    only has to land the right ranks and a good starting subspace).
    ``"float32"`` runs the iterations narrow as well; outputs are always
    returned as float64.  ``"float64"`` is bit-identical to the historical
    behavior.

    ``mode_order=`` is the order in which every sweep updates the factors
    (and the ST-HOSVD initialization processes the modes); default
    increasing.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    if not improvement_tol >= 0:  # NaN too
        raise ValueError(f"improvement_tol must be >= 0, got {improvement_tol}")
    if method not in ("gram", "svd"):
        raise ValueError(f"unknown method {method!r}; use 'gram' or 'svd'")
    order = resolve_mode_order(mode_order, dt.ndim)
    compute = resolve_compute_dtype(compute_dtype)
    # Mixed precision: float32 init, float64 iterations (the sweeps against
    # the original tensor are the refinement); pure float32 iterates narrow.
    init_compute = "float32" if compute in ("float32", "mixed") else "float64"
    iter_dtype = np.dtype(np.float32 if compute == "float32" else np.float64)

    if init is None:
        init = dist_sthosvd(
            dt, tol=tol, ranks=ranks, mode_order=order,
            ttm_strategy=ttm_strategy, method=method,
            compute_dtype=init_compute,
        )
    factors = [np.array(f, dtype=iter_dtype, copy=True) for f in init.factors_local]
    eigenvalues = list(init.eigenvalues)
    xwork = dt
    if iter_dtype == np.float32 and dt.local.dtype != np.float32:
        xwork = dt.with_local(np.asarray(dt.local, dtype=np.float32))

    x_norm_sq = init.x_norm_sq
    core = init.core
    history = [max(0.0, x_norm_sq - core.norm_sq())]

    converged = False
    iterations = 0
    for _ in range(max_iterations):
        core = _hooi_sweep(
            xwork, order, factors, eigenvalues, method, ttm_strategy, iter_dtype
        )
        iterations += 1
        history.append(max(0.0, x_norm_sq - core.norm_sq()))
        if (history[-2] - history[-1]) / x_norm_sq < improvement_tol:
            converged = True
            break

    # Deliverables are always float64, whatever the iteration dtype.
    if core.local.dtype != np.float64:
        core = core.with_local(np.asarray(core.local, dtype=np.float64))
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    decomposition = DistTucker(
        core=core,
        factors_local=factors,
        eigenvalues=eigenvalues,
        x_norm_sq=x_norm_sq,
        mode_order=init.mode_order,
    )
    return DistHooiResult(
        decomposition=decomposition,
        residual_history=tuple(history),
        n_iterations=iterations,
        converged=converged,
    )
