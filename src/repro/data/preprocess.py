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
from typing import TYPE_CHECKING

import numpy as np

from repro.tensor.dense import as_ndarray
from repro.util.validation import check_axis, prod

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.dist_tensor import DistTensor

#: Threshold below which a slice is considered constant and not divided.
SIGMA_FLOOR = 1e-10


@dataclass(frozen=True)
class ScaleInfo:
    """Per-slice statistics needed to invert the normalization."""

    mode: int
    means: np.ndarray
    stds: np.ndarray  # the divisors actually applied (1.0 where skipped)


def _normalize_slices(
    src: np.ndarray,
    dst: np.ndarray,
    mode: int,
    global_shape: tuple[int, ...],
    row=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Write the centred and scaled ``mode`` slices of ``src`` to ``dst``.

    The one slice-statistics kernel behind both entry points: per-slice
    sums, then sums of squares of the centred entries read back from
    ``dst`` (which may be ``src`` itself), both accumulated in float64
    with no tensor-sized temporary.  ``row`` is the communicator whose
    ranks hold the other pieces of the same slices of the
    ``global_shape`` tensor (``None``: this block is all of them).
    Returns ``(means, divisors)``, one entry per local slice.
    """
    axes = tuple(a for a in range(src.ndim) if a != mode)
    count = prod(global_shape[a] for a in axes)
    expand = (1,) * mode + (-1,) + (1,) * (src.ndim - 1 - mode)

    def total(partial: np.ndarray) -> np.ndarray:
        if row is None:
            return partial
        return np.asarray(row.allreduce(partial))  # op: SUM

    means = total(np.add.reduce(src, axis=axes, dtype=np.float64)) / count
    np.subtract(src, means.reshape(expand), out=dst)
    modes = list(range(dst.ndim))
    stds = np.sqrt(
        total(np.einsum(dst, modes, dst, modes, [mode], dtype=np.float64))
        / count
    )
    divisors = np.where(stds < SIGMA_FLOOR, 1.0, stds)
    np.divide(dst, divisors.reshape(expand), out=dst)
    return means, divisors


def center_and_scale(
    x: np.ndarray, species_mode: int
) -> tuple[np.ndarray, ScaleInfo]:
    """Center and scale each slice of ``species_mode``.

    Returns the normalized tensor and the :class:`ScaleInfo` to undo it.
    The input is not modified.
    """
    arr = as_ndarray(x)
    mode = check_axis(species_mode, arr.ndim, "species_mode")
    out = np.empty(arr.shape, dtype=arr.dtype, order="F")
    means, divisors = _normalize_slices(arr, out, mode, arr.shape)
    return out, ScaleInfo(mode=mode, means=means, stds=divisors)


def dist_center_and_scale(dt: "DistTensor", species_mode: int) -> ScaleInfo:
    """:func:`center_and_scale` of a block-distributed tensor, in place.

    Each rank normalizes its own block: slice sums and centred sums of
    squares are all-reduced over the species mode's processor row (the
    ranks holding the other pieces of the same slices) only when that row
    has more than one rank, so a ``1x...x1`` grid is bit-identical to the
    sequential function on the same Fortran-ordered block.  The returned
    :class:`ScaleInfo` covers all ``I_n`` slices on every rank (one
    all-gather over the mode's processor column).  Collective.
    """
    mode = check_axis(species_mode, dt.ndim, "species_mode")
    grid = dt.grid
    row = grid.mode_row(mode) if dt.comm.size > grid.dims[mode] else None
    means, divisors = _normalize_slices(
        dt.local, dt.local, mode, dt.global_shape, row
    )
    dt.comm.add_flops(5 * dt.local.size)
    stats = np.stack((means, divisors))
    if grid.dims[mode] > 1:
        pieces = grid.mode_column(mode).allgather(stats)
        stats = np.concatenate(pieces, axis=1)
    return ScaleInfo(mode=mode, means=stats[0], stds=stats[1])


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
