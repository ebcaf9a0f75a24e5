"""Per-species centering and scaling (paper Sec. VII-A).

The paper normalizes each variable/species slice before compression: for
every index ``s`` of the species mode, subtract the slice mean and divide
by the slice standard deviation *unless* the deviation is below ``1e-10``
(constant slices are only centered).  After normalization each entry is
roughly standard normal, making the normalized RMS error interpretable
across variables with wildly different physical scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.dense import as_ndarray
from repro.util.validation import check_axis

#: Threshold below which a slice is considered constant and not divided.
SIGMA_FLOOR = 1e-10


@dataclass(frozen=True)
class ScaleInfo:
    """Per-slice statistics needed to invert the normalization."""

    mode: int
    means: np.ndarray
    stds: np.ndarray  # the divisors actually applied (1.0 where skipped)


def center_and_scale(
    x: np.ndarray, species_mode: int
) -> tuple[np.ndarray, ScaleInfo]:
    """Center and scale each slice of ``species_mode``.

    Returns the normalized tensor and the :class:`ScaleInfo` to undo it.
    The input is not modified.
    """
    arr = as_ndarray(x)
    mode = check_axis(species_mode, arr.ndim, "species_mode")
    axes = tuple(a for a in range(arr.ndim) if a != mode)
    means = arr.mean(axis=axes, keepdims=True)
    stds = arr.std(axis=axes, keepdims=True)
    divisors = np.where(stds < SIGMA_FLOOR, 1.0, stds)
    out = np.empty(arr.shape, dtype=arr.dtype, order="F")
    np.subtract(arr, means, out=out)
    out /= divisors
    return out, ScaleInfo(
        mode=mode, means=means.squeeze(), stds=divisors.squeeze()
    )


def invert_scaling(x: np.ndarray, info: ScaleInfo) -> np.ndarray:
    """Undo :func:`center_and_scale` (e.g. after reconstruction)."""
    arr = as_ndarray(x)
    mode = check_axis(info.mode, arr.ndim, "info.mode")
    n = arr.shape[mode]
    means = np.asarray(info.means, dtype=np.float64).reshape(-1)
    stds = np.asarray(info.stds, dtype=np.float64).reshape(-1)
    if means.shape[0] != n or stds.shape[0] != n:
        raise ValueError(
            f"scale info covers {means.shape[0]} slices but tensor has {n}"
        )
    expand = (1,) * mode + (-1,) + (1,) * (arr.ndim - 1 - mode)
    out = np.empty(arr.shape, dtype=arr.dtype, order="F")
    np.multiply(arr, stds.reshape(expand), out=out)
    out += means.reshape(expand)
    return out
