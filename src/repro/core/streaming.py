"""Streaming Tucker compression for time-appended simulation output.

The paper compresses completed datasets, but its motivating scenario —
a running simulation emitting one time step at a time (Sec. I) — invites an
incremental variant, which later became a TuckerMPI research line.  This
module implements a streaming ST-HOSVD with a provable error budget:

* non-time factor bases are *grown on demand*: each incoming slab is
  projected onto the current bases; if the projection residual exceeds the
  slab's error budget, an ST-HOSVD of the residual supplies new orthonormal
  directions, and the accumulated core is zero-padded into the enlarged
  bases;
* the time mode stays uncompressed while streaming (the core grows one
  slab at a time);
* :meth:`StreamingTucker.finalize` recompresses the accumulated core —
  including the time mode — with the remaining budget.

Budget argument: each slab may discard at most ``eps^2 ||slab||^2 / 2`` of
energy, and the final recompression at tolerance ``eps / sqrt(2)`` discards
at most ``eps^2 ||K||^2 / 2 <= eps^2 ||X||^2 / 2``; since slab energies sum
to ``||X||^2`` (disjoint time ranges), the total squared error is at most
``eps^2 ||X||^2`` — the same guarantee as batch ST-HOSVD, achieved without
ever holding the full tensor (peak memory is the running core plus one
slab).
"""

from __future__ import annotations

import numpy as np

from repro.core.sthosvd import sthosvd
from repro.core.tucker import TuckerTensor
from repro.tensor.dense import as_ndarray, norm, norm_sq
from repro.tensor.ttm import multi_ttm
from repro.util.validation import check_shape_like


class StreamingTucker:
    """Incrementally compress a tensor arriving as slabs of the last mode.

    Parameters
    ----------
    spatial_shape:
        The fixed shape of all modes except the streaming (last) mode.
    tol:
        Relative error tolerance for the *final* decomposition, measured
        against the full streamed tensor.
    """

    def __init__(self, spatial_shape: tuple[int, ...] | list[int], tol: float):
        self._spatial_shape = check_shape_like(spatial_shape, "spatial_shape")
        if tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")
        self._tol = float(tol)
        self._n_spatial = len(self._spatial_shape)
        self._bases: list[np.ndarray | None] = [None] * self._n_spatial
        self._core_slabs: list[np.ndarray] = []
        self._energy = 0.0  # running ||X||^2
        self._discarded = 0.0  # running discarded energy (for accounting)
        self._n_steps = 0
        self._pending_zero_steps = 0  # zero slabs seen before any basis
        self._finalized = False

    # -- state -----------------------------------------------------------------

    @property
    def n_steps(self) -> int:
        """Time steps ingested so far."""
        return self._n_steps

    @property
    def current_ranks(self) -> tuple[int, ...]:
        """Current basis sizes for the non-streaming modes."""
        return tuple(
            0 if b is None else b.shape[1] for b in self._bases
        )

    @property
    def streamed_norm(self) -> float:
        """``||X||`` of everything ingested so far."""
        return float(np.sqrt(self._energy))

    # -- ingestion -------------------------------------------------------------------

    def update(self, slab: np.ndarray) -> None:
        """Ingest one or more time steps.

        ``slab`` must have shape ``spatial_shape`` (a single step) or
        ``spatial_shape + (t,)``.
        """
        if self._finalized:
            raise RuntimeError("cannot update a finalized StreamingTucker")
        arr = as_ndarray(slab)
        if arr.shape == self._spatial_shape:
            arr = arr.reshape(self._spatial_shape + (1,))
        if arr.shape[:-1] != self._spatial_shape:
            raise ValueError(
                f"slab shape {arr.shape} does not match spatial shape "
                f"{self._spatial_shape} (+ optional time axis)"
            )
        slab_energy = norm_sq(arr)
        self._energy += slab_energy
        self._n_steps += arr.shape[-1]
        if slab_energy == 0.0:
            # An all-zero slab contributes zero rows to the core.
            if any(b is None for b in self._bases):
                self._pending_zero_steps += arr.shape[-1]
            else:
                self._core_slabs.append(
                    np.zeros(self.current_ranks + (arr.shape[-1],))
                )
            return

        budget = (self._tol**2) * slab_energy / 2.0

        if any(b is None for b in self._bases):
            # First slab: bases straight from its ST-HOSVD (time untouched).
            res = sthosvd(
                arr,
                tol=np.sqrt(budget / slab_energy),
                mode_order=list(range(self._n_spatial)) + [self._n_spatial],
            )
            # Keep the spatial factors; leave time uncompressed by
            # re-projecting the raw slab (the sthosvd above also truncated
            # time, which we do not want while streaming).
            for n in range(self._n_spatial):
                self._bases[n] = res.decomposition.factors[n]
            if self._pending_zero_steps:
                self._core_slabs.append(
                    np.zeros(self.current_ranks + (self._pending_zero_steps,))
                )
                self._pending_zero_steps = 0
            core = multi_ttm(
                arr,
                list(self._bases) + [None],
                transpose=True,
            )
            self._core_slabs.append(np.asfortranarray(core))
            return

        projected = multi_ttm(arr, list(self._bases) + [None], transpose=True)
        residual_energy = slab_energy - norm_sq(projected)
        if residual_energy > budget:
            self._expand_bases(arr, projected, budget)
            projected = multi_ttm(
                arr, list(self._bases) + [None], transpose=True
            )
        self._discarded += max(0.0, slab_energy - norm_sq(projected))
        self._core_slabs.append(np.asfortranarray(projected))

    def _expand_bases(
        self, arr: np.ndarray, projected: np.ndarray, budget: float
    ) -> None:
        """Grow the spatial bases to capture ``arr`` within ``budget``."""
        # Residual slab: what the current bases miss.
        back = multi_ttm(projected, list(self._bases) + [None], transpose=False)
        residual = arr - back
        res_norm = norm(residual)
        if res_norm == 0.0:
            return
        res = sthosvd(
            residual,
            tol=np.sqrt(budget) / res_norm,
            mode_order=list(range(self._n_spatial)) + [self._n_spatial],
        )
        grew = False
        for n in range(self._n_spatial):
            old = self._bases[n]
            new_dirs = res.decomposition.factors[n]
            # Orthogonalize new directions against the existing basis.
            overlap = old @ (old.T @ new_dirs)
            extra = new_dirs - overlap
            q, r = np.linalg.qr(extra)
            keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, res_norm)
            q = q[:, keep]
            if q.shape[1] == 0:
                continue
            max_growth = self._spatial_shape[n] - old.shape[1]
            q = q[:, :max_growth]
            if q.shape[1] == 0:
                continue
            self._bases[n] = np.hstack([old, q])
            grew = True
        if not grew:
            return
        # Zero-pad previously accumulated core slabs into the new bases.
        new_ranks = self.current_ranks
        for i, slab in enumerate(self._core_slabs):
            padded = np.zeros(new_ranks + (slab.shape[-1],))
            padded[tuple(slice(0, s) for s in slab.shape)] = slab
            self._core_slabs[i] = padded

    # -- output ----------------------------------------------------------------------

    def finalize(self) -> TuckerTensor:
        """Recompress the accumulated core and return the decomposition.

        The returned object approximates the full streamed tensor with
        normalized RMS error at most ``tol``.  The streamer becomes
        read-only afterwards.
        """
        if self._n_steps == 0:
            raise RuntimeError("no data was streamed")
        if not self._core_slabs:
            raise ValueError(
                "streamed data is identically zero; nothing to decompose"
            )
        self._finalized = True
        core = np.concatenate(self._core_slabs, axis=-1)
        # Recompress everything (time included) with the remaining budget.
        inner = sthosvd(core, tol=self._tol / np.sqrt(2.0))
        factors = []
        for n in range(self._n_spatial):
            factors.append(self._bases[n] @ inner.decomposition.factors[n])
        factors.append(inner.decomposition.factors[self._n_spatial])
        return TuckerTensor(
            core=inner.decomposition.core, factors=tuple(factors)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingTucker(spatial={self._spatial_shape}, "
            f"steps={self._n_steps}, ranks={self.current_ranks})"
        )
