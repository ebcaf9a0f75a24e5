"""The paper's primary contribution: Tucker decomposition for compression.

The sequential entry points of the paper's algorithms:

* :func:`sthosvd` — sequentially-truncated HOSVD (Alg. 1), the paper's
  initialization and, in practice, its complete compression method.
* :func:`hooi` — higher-order orthogonal iteration (Alg. 2), the iterative
  refinement.
* :class:`TuckerTensor` — the compressed object: core + factor matrices,
  with full and *partial* (subtensor) reconstruction (paper Sec. II-C) and
  compression accounting (Sec. VII-B).
* :mod:`repro.core.errors` — normalized RMS error, the mode-wise error
  curves of Fig. 6, and the T-HOSVD error bound, eq. (3).

Each algorithm is written once, in :mod:`repro.distributed`: ``sthosvd``,
``hooi`` run its drivers on a one-rank grid
(:func:`repro.distributed.grid.self_grid`), on the caller's array.
"""

from repro.core.tucker import TuckerTensor
from repro.core.sthosvd import (
    SthosvdResult,
    greedy_flops_order,
    greedy_ratio_order,
    sthosvd,
)
from repro.core.hooi import HooiResult, hooi
from repro.core.errors import (
    compression_ratio,
    error_bound,
    max_abs_error,
    modewise_error_curves,
    normalized_rms,
    relative_error,
)
from repro.core.diagnostics import ValidationReport, validate_tucker
from repro.core.precision import (
    COMPUTE_DTYPES,
    FLOAT32_NOISE_FLOOR,
    MIXED_TRUNC_SHARE,
    float32_error_budget,
    kernel_dtype,
    match_dtype,
    resolve_compute_dtype,
    split_tolerance,
)

__all__ = [
    "TuckerTensor",
    "SthosvdResult",
    "sthosvd",
    "greedy_flops_order",
    "greedy_ratio_order",
    "HooiResult",
    "hooi",
    "normalized_rms",
    "relative_error",
    "max_abs_error",
    "modewise_error_curves",
    "error_bound",
    "compression_ratio",
    "ValidationReport",
    "validate_tucker",
    "COMPUTE_DTYPES",
    "FLOAT32_NOISE_FLOOR",
    "MIXED_TRUNC_SHARE",
    "resolve_compute_dtype",
    "kernel_dtype",
    "match_dtype",
    "split_tolerance",
    "float32_error_budget",
]
