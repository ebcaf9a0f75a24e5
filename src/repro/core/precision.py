"""Mixed-precision policy: compute dtypes and the error-budget split.

The distributed ST-HOSVD pipeline is communication-bound at scale, and
every Gram ring hop, TSQR exchange and TTM reduce ships words whose width
is the compute precision.  The ``compute_dtype`` runtime knob
(``REPRO_DTYPE``) selects that width:

``float64``
    The default.  Bit-identical to the historical pipeline on every
    backend and knob combination.
``float32``
    Gram/TSQR/TTM run in single precision end to end; ring hops,
    allgathers and reduces ship half the bytes per message.  The delivered
    relative error carries a single-precision noise floor on top of the
    truncation error (see :func:`float32_error_budget`).
``mixed``
    float32 kernels plus one round of float64 refinement of the factor
    matrices against the original tensor slabs, so the delivered error
    still meets the user's tolerance.

Error-split contract (``mixed``)
--------------------------------
A user tolerance ``tol`` is split into a truncation share and a
precision share, combined in quadrature:

* truncation gets ``tol * sqrt(MIXED_TRUNC_SHARE)`` — the per-mode
  eigenvalue-tail thresholds are computed from this tighter tolerance;
* precision gets ``tol * sqrt(1 - MIXED_TRUNC_SHARE)`` — after the
  float32 sweep the driver estimates its precision loss (the float32
  noise floor plus the measured orthonormality defect of the computed
  factors) and triggers the float64 refinement sweep *only* when that
  estimate exceeds the precision share.

With ``MIXED_TRUNC_SHARE = 0.5`` both shares are ``tol / sqrt(2)``:
loose tolerances (well above the float32 noise floor) skip refinement
entirely and keep the full bandwidth win, while tight tolerances pay one
float64 sweep and still deliver ``error <= tol``.

The small dense eigenproblems and the final TSQR ``R``-factor SVD are
always solved in float64 (they are rank-local and cheap); only the
bandwidth-carrying kernels run narrow.
"""

from __future__ import annotations

import numpy as np

from repro.config import default_for
from repro.tensor.dense import match_dtype

__all__ = [
    "COMPUTE_DTYPES",
    "FLOAT32_NOISE_FLOOR",
    "MIXED_TRUNC_SHARE",
    "resolve_compute_dtype",
    "kernel_dtype",
    "match_dtype",
    "split_tolerance",
    "float32_error_budget",
]

#: Valid ``compute_dtype`` / ``REPRO_DTYPE`` values.
COMPUTE_DTYPES = ("float64", "float32", "mixed")

#: Relative noise floor of the float32 Gram/TSQR path:
#: ``sqrt(eps_float32)``, because the Gram route squares the conditioning
#: (singular values below ``sigma_1 * sqrt(eps)`` drown in roundoff).
FLOAT32_NOISE_FLOOR = float(np.sqrt(np.finfo(np.float32).eps))

#: Fraction of the squared tolerance granted to truncation under
#: ``mixed``; the rest is the precision share that gates refinement.
MIXED_TRUNC_SHARE = 0.5


def resolve_compute_dtype(override: str | None = None) -> str:
    """The effective compute dtype: kwarg > config/env > ``"float64"``.

    Follows the same resolution contract as every other knob helper: an
    explicit argument wins, otherwise the active run config (installed at
    the ``run_spmd`` boundary), otherwise the environment default.
    """
    value = override if override is not None else default_for("compute_dtype")
    if value not in COMPUTE_DTYPES:
        raise ValueError(
            f"unknown compute dtype {value!r}; use one of {COMPUTE_DTYPES}"
        )
    return value


def kernel_dtype(compute: str) -> np.dtype:
    """The numpy dtype the bandwidth-carrying kernels run in."""
    return np.dtype(np.float32 if compute in ("float32", "mixed")
                    else np.float64)


def split_tolerance(tol: float) -> tuple[float, float]:
    """``(truncation_tolerance, precision_share)`` for ``mixed`` mode.

    The two shares combine in quadrature to the user's ``tol``:
    ``trunc**2 + prec**2 == tol**2``.
    """
    trunc = tol * float(np.sqrt(MIXED_TRUNC_SHARE))
    prec = tol * float(np.sqrt(1.0 - MIXED_TRUNC_SHARE))
    return trunc, prec


def float32_error_budget(tol: float) -> float:
    """Documented delivered-error budget of pure ``float32`` mode.

    ``float32`` performs no refinement, so the delivered relative error
    is the requested truncation error plus the single-precision noise
    floor (in quadrature, with a small safety factor for the per-mode
    accumulation across the sweep).
    """
    return float(np.sqrt(tol * tol + (4.0 * FLOAT32_NOISE_FLOOR) ** 2))
