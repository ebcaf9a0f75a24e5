"""Error metrics and bounds for Tucker compression (paper Secs. II, VII).

Implements:

* :func:`normalized_rms` / :func:`relative_error` — the paper's "normalized
  RMS error" ``||X - X~|| / ||X||``.
* :func:`max_abs_error` — maximum absolute elementwise error (Table II).
* :func:`modewise_error_curves` — the per-mode truncation error curves
  ``sqrt(sum_{i > R} lambda_i^(n)) / ||X||`` of Fig. 6.
* :func:`error_bound` — the T-HOSVD truncation bound, eq. (3):
  ``||X - X~||^2 <= sum_n sum_{i > R_n} lambda_i^(n) <= eps^2 ||X||^2``.
* :func:`compression_ratio` — the storage ratio formula of Sec. VII-B.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.dense import as_ndarray, norm
from repro.tensor.eig import eigendecompose
from repro.tensor.gram import gram
from repro.util.validation import check_shape_like, prod


def normalized_rms(x: np.ndarray, x_hat: np.ndarray) -> float:
    """``||X - X~|| / ||X||``.

    The paper calls this the normalized RMS error: with data centered and
    scaled to unit variance, ``||X||^2 ~ prod(I_n)``, so the relative
    Frobenius error equals the RMS elementwise error in units of the data's
    standard deviation.
    """
    a = as_ndarray(x)
    b = as_ndarray(x_hat)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = norm(a)
    if denom == 0:
        raise ValueError("cannot normalize by a zero tensor")
    return norm(a - b) / denom


#: Alias: the quantity is exactly the relative Frobenius-norm error.
relative_error = normalized_rms


def max_abs_error(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Maximum absolute elementwise error (Table II column)."""
    a = as_ndarray(x)
    b = as_ndarray(x_hat)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def mode_eigenvalues(x: np.ndarray) -> list[np.ndarray]:
    """Eigenvalues of every mode-n Gram matrix, decreasing per mode.

    ``lambda_i^(n)`` is the square of the i-th singular value of ``X_(n)``;
    these spectra fully determine the compressibility of the data.
    """
    arr = as_ndarray(x)
    return [eigendecompose(gram(arr, n)).values for n in range(arr.ndim)]


def modewise_error_curves(
    x: np.ndarray, eigenvalues: Sequence[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Fig. 6: for each mode, the normalized truncation error vs rank.

    Returns one array per mode; entry ``R`` (0 <= R <= I_n) is

        ``sqrt(sum_{i > R} lambda_i^(n)) / ||X||``,

    the mode-wise contribution to the error bound if mode ``n`` is truncated
    to rank ``R``.  Pass precomputed ``eigenvalues`` to avoid refactoring
    the Gram matrices (the distributed driver supplies them).
    """
    arr = as_ndarray(x)
    x_norm = norm(arr)
    if x_norm == 0:
        raise ValueError("zero tensor has no meaningful error curve")
    if eigenvalues is None:
        eigenvalues = mode_eigenvalues(arr)
    curves = []
    for values in eigenvalues:
        n = values.shape[0]
        tail = np.zeros(n + 1)
        tail[:n] = np.cumsum(values[::-1])[::-1]
        curves.append(np.sqrt(np.clip(tail, 0.0, None)) / x_norm)
    return curves


def error_bound(
    eigenvalues: Sequence[np.ndarray], ranks: Sequence[int], x_norm: float
) -> float:
    """T-HOSVD error bound (eq. 3), as a normalized RMS error.

    ``||X - X~|| / ||X|| <= sqrt(sum_n sum_{i > R_n} lambda_i^(n)) / ||X||``.
    """
    ranks = check_shape_like(ranks, "ranks")
    if len(eigenvalues) != len(ranks):
        raise ValueError("one eigenvalue array per mode is required")
    if x_norm <= 0:
        raise ValueError(f"x_norm must be positive, got {x_norm}")
    total = 0.0
    for values, r in zip(eigenvalues, ranks):
        if not 0 <= r <= values.shape[0]:
            raise ValueError(
                f"rank {r} out of range for mode with {values.shape[0]} eigenvalues"
            )
        total += float(np.sum(values[r:]))
    return float(np.sqrt(max(0.0, total)) / x_norm)


def compression_ratio(shape: Sequence[int], ranks: Sequence[int]) -> float:
    """``C = prod(I_n) / (prod(R_n) + sum_n I_n R_n)`` (Sec. VII-B)."""
    shape = check_shape_like(shape, "shape")
    ranks = check_shape_like(ranks, "ranks")
    if len(shape) != len(ranks):
        raise ValueError(f"shape {shape} and ranks {ranks} differ in order")
    for r, s in zip(ranks, shape):
        if r > s:
            raise ValueError(f"rank {r} exceeds dimension {s}")
    storage = prod(ranks) + sum(i * r for i, r in zip(shape, ranks))
    return prod(shape) / storage
