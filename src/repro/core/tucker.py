"""The Tucker-compressed tensor object (paper Sec. II-B, II-C, VII-B).

A :class:`TuckerTensor` holds the core ``G`` (size ``R_1 x ... x R_N``) and
factor matrices ``U^(n)`` (size ``I_n x R_n``) of the approximation

    ``X ~ G x_1 U^(1) x_2 U^(2) ... x_N U^(N)``.

It supports full reconstruction, *partial* reconstruction of arbitrary
subtensors without forming the whole tensor (the capability that lets
terabyte datasets be analysed on a laptop — Sec. II-C), norm computation via
the core (valid for orthonormal factors), and the paper's compression-ratio
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import normalized_rms
from repro.tensor.dense import as_ndarray, norm
from repro.tensor.ttm import multi_ttm
from repro.util.validation import prod


@dataclass(frozen=True)
class TuckerTensor:
    """Core tensor plus one factor matrix per mode.

    Attributes
    ----------
    core:
        ``R_1 x ... x R_N`` ndarray ``G``.
    factors:
        Tuple of ``I_n x R_n`` factor matrices ``U^(n)``.  For
        decompositions produced by this library the columns are orthonormal.
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        core = np.asarray(self.core, dtype=np.float64)
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)
        if len(factors) != core.ndim:
            raise ValueError(
                f"core has {core.ndim} modes but {len(factors)} factors given"
            )
        for n, f in enumerate(factors):
            if f.ndim != 2:
                raise ValueError(f"factor {n} must be a matrix, got ndim={f.ndim}")
            if f.shape[1] != core.shape[n]:
                raise ValueError(
                    f"factor {n} has {f.shape[1]} columns but core mode {n} "
                    f"has size {core.shape[n]}"
                )

    # -- shapes ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of modes N."""
        return self.core.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape ``I_1 x ... x I_N`` of the reconstructed tensor."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Reduced dimensions ``R_1 x ... x R_N``."""
        return self.core.shape

    # -- reconstruction -------------------------------------------------------------

    def reconstruct(self) -> np.ndarray:
        """Full reconstruction ``X~ = G x {U^(n)}`` (eq. 1)."""
        return multi_ttm(self.core, list(self.factors), transpose=False)

    def reconstruct_subtensor(
        self, indices: Sequence[slice | Sequence[int] | int | None]
    ) -> np.ndarray:
        """Reconstruct only the requested subtensor (paper Sec. II-C).

        Each entry of ``indices`` selects rows of the corresponding factor
        matrix: a ``slice``, an integer index (that mode is kept with size
        1), an explicit index sequence, or ``None`` for the whole mode.  The
        cost scales with the *subtensor* size, never the full tensor: only
        the selected factor rows enter the TTM chain, and the chain runs its
        shrinking steps first (:func:`~repro.tensor.ttm.chain_order`), so no
        intermediate is larger than the core or the subtensor.

        Examples
        --------
        A single variable (index 3 of mode 3) at every 10th time step::

            t.reconstruct_subtensor([None, None, None, 3, slice(0, None, 10)])
        """
        if len(indices) != self.order:
            raise ValueError(
                f"need one index per mode ({self.order}), got {len(indices)}"
            )
        rows: list[np.ndarray] = []
        for n, idx in enumerate(indices):
            factor = self.factors[n]
            if idx is None:
                rows.append(factor)
            elif isinstance(idx, slice):
                rows.append(factor[idx])
            elif isinstance(idx, (int, np.integer)):
                if not -factor.shape[0] <= idx < factor.shape[0]:
                    raise IndexError(
                        f"index {idx} out of range for mode {n} of size "
                        f"{factor.shape[0]}"
                    )
                rows.append(factor[idx : idx + 1] if idx >= 0 else factor[idx:][:1])
            else:
                rows.append(factor[np.asarray(idx, dtype=np.intp)])
        for n, r in enumerate(rows):
            if r.shape[0] == 0:
                raise ValueError(f"selection for mode {n} is empty")
        return multi_ttm(self.core, rows, transpose=False)

    # -- norms and errors -------------------------------------------------------------

    def core_norm(self) -> float:
        """``||G||``; equals ``||X~||`` when all factors are orthonormal."""
        return norm(self.core)

    def residual_norm_sq(self, x_norm_sq: float) -> float:
        """``||X||^2 - ||G||^2``, the paper's fit quantity (Alg. 2 line 10).

        Valid when the factors are orthonormal and ``G = X x {U^(n)T}``;
        clipped at 0 against roundoff.
        """
        return max(0.0, x_norm_sq - self.core_norm() ** 2)

    def relative_error(self, x: np.ndarray) -> float:
        """Normalized RMS error ``||X - X~|| / ||X||`` by explicit residual."""
        arr = as_ndarray(x)
        if arr.shape != self.shape:
            raise ValueError(
                f"tensor shape {arr.shape} does not match decomposition "
                f"shape {self.shape}"
            )
        return normalized_rms(arr, self.reconstruct())

    # -- compression accounting (Sec. VII-B) --------------------------------------------

    @property
    def storage_words(self) -> int:
        """Words stored: ``prod(R_n) + sum_n I_n R_n``."""
        return prod(self.ranks) + sum(
            f.shape[0] * f.shape[1] for f in self.factors
        )

    @property
    def compression_ratio(self) -> float:
        """``C = prod(I_n) / (prod(R_n) + sum_n I_n R_n)`` (Sec. VII-B)."""
        return prod(self.shape) / self.storage_words

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TuckerTensor(shape={self.shape}, ranks={self.ranks}, "
            f"compression={self.compression_ratio:.1f}x)"
        )
