"""Decomposition health checks and validation reports.

Downstream users of compressed artifacts need to verify properties the
algorithms guarantee by construction: orthonormal factor columns, a core
that is the optimal projection of the data, and an error estimate that
matches reality.  :func:`validate_tucker` checks all of them and returns a
structured report (used by tests, useful in notebooks and pipelines).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tucker import TuckerTensor
from repro.tensor.dense import as_ndarray, norm
from repro.tensor.ttm import multi_ttm


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_tucker`.

    Attributes
    ----------
    orthonormality_errors:
        Per mode, ``max |U^T U - I|`` — 0 for perfectly orthonormal factors.
    core_residual:
        ``||G - X x {U^T}|| / ||X||`` if the original tensor was supplied
        (None otherwise); ~0 when the core is the optimal projection.
    relative_error:
        ``||X - X~|| / ||X||`` if the original tensor was supplied.
    norm_identity_gap:
        ``| ||X~||  - ||G|| | / ||G||`` — orthonormal factors preserve the
        core norm through reconstruction.
    issues:
        Human-readable list of everything that exceeded its tolerance.
    """

    orthonormality_errors: tuple[float, ...]
    core_residual: float | None
    relative_error: float | None
    norm_identity_gap: float
    issues: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True when no check exceeded its tolerance."""
        return not self.issues


def check_orthonormal(factor: np.ndarray) -> float:
    """``max |U^T U - I|`` for one factor matrix."""
    factor = np.asarray(factor, dtype=np.float64)
    if factor.ndim != 2:
        raise ValueError(f"factor must be a matrix, got ndim={factor.ndim}")
    r = factor.shape[1]
    return float(np.max(np.abs(factor.T @ factor - np.eye(r))))


def validate_tucker(
    t: TuckerTensor,
    x: np.ndarray | None = None,
    atol: float = 1e-8,
) -> ValidationReport:
    """Validate a Tucker decomposition's structural guarantees.

    Parameters
    ----------
    t:
        The decomposition to check.
    x:
        Optionally, the original tensor: enables the core-optimality and
        true-error checks (costs one reconstruction).
    atol:
        Tolerance for the orthonormality / identity checks.
    """
    if not isinstance(t, TuckerTensor):
        raise TypeError(f"expected a TuckerTensor, got {type(t).__name__}")
    issues: list[str] = []

    orth = tuple(check_orthonormal(f) for f in t.factors)
    for n, err in enumerate(orth):
        if err > atol:
            issues.append(
                f"factor {n} deviates from orthonormality by {err:.2e}"
            )

    recon = t.reconstruct()
    g_norm = t.core_norm()
    recon_norm = norm(recon)
    gap = abs(recon_norm - g_norm) / max(g_norm, 1e-300)
    if gap > max(atol, 1e-12):
        issues.append(
            f"reconstruction norm differs from core norm by {gap:.2e} "
            f"(factors not orthonormal?)"
        )

    core_residual = None
    relative_error = None
    if x is not None:
        arr = as_ndarray(x)
        if arr.shape != t.shape:
            raise ValueError(
                f"tensor shape {arr.shape} does not match decomposition "
                f"{t.shape}"
            )
        x_norm = norm(arr)
        if x_norm == 0:
            raise ValueError("cannot validate against a zero tensor")
        optimal_core = multi_ttm(arr, list(t.factors), transpose=True)
        core_residual = norm(t.core - optimal_core) / x_norm
        if core_residual > max(atol, 1e-10):
            issues.append(
                f"core is not the optimal projection (residual "
                f"{core_residual:.2e}); was it produced by a different "
                f"factor set?"
            )
        relative_error = norm(arr - recon) / x_norm

    return ValidationReport(
        orthonormality_errors=orth,
        core_residual=core_residual,
        relative_error=relative_error,
        norm_identity_gap=gap,
        issues=tuple(issues),
    )
