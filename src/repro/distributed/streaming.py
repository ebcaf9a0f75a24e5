"""Streaming Tucker compression of time-appended simulation output.

The paper's motivating scenario is a running parallel simulation whose
output outgrows storage (Sec. I).  Deployed in situ, each rank holds its
block of every new time slab and compression runs on the simulation's own
grid (spatial modes, plus a time mode that is never partitioned) without
gathering a slab; on a one-rank grid this is the sequential
:class:`repro.core.streaming.StreamingTucker`.

* Spatial bases are grown on demand, held as block rows (Sec. IV-B): each
  slab is projected onto them by distributed TTMs; if the residual exceeds
  the slab's budget, a distributed ST-HOSVD of the residual supplies new
  orthonormal directions and the stored core is zero-padded into them.
* The core — the compressed stream, small by construction — grows one
  slab at a time, replicated on every rank, so no stored slab moves when a
  basis grows; :meth:`DistStreamingTucker.finalize` recompresses it, time
  mode included, and returns a :class:`~repro.core.tucker.TuckerTensor`.

Budget: each slab may discard at most ``eps^2 ||slab||^2 / 2`` of energy
and the final recompression at ``eps / sqrt(2)`` at most
``eps^2 ||X||^2 / 2``; slab energies sum to ``||X||^2``, so the total
squared error is at most ``eps^2 ||X||^2`` — batch ST-HOSVD's guarantee,
without ever holding the full tensor.
"""

from __future__ import annotations

import numpy as np

from repro.core.tucker import TuckerTensor
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.layout import block_range, local_shape
from repro.distributed.sthosvd import (
    dist_sthosvd,
    gather_rows,
    project_modes,
    reconstruct_modes,
)
from repro.mpi.cart import CartGrid
from repro.util.validation import check_shape_like


class DistStreamingTucker:
    """Incrementally compress distributed time slabs on a processor grid.

    Parameters
    ----------
    grid:
        Cartesian grid over the *spatial* modes plus the time mode with
        extent 1 (time is never partitioned while streaming).
    spatial_shape:
        Global shape of the non-time modes.
    tol:
        Relative error tolerance for the final decomposition.
    """

    def __init__(
        self,
        grid: CartGrid,
        spatial_shape: tuple[int, ...] | list[int],
        tol: float,
    ):
        self._spatial_shape = check_shape_like(spatial_shape, "spatial_shape")
        if not tol > 0:  # NaN too
            raise ValueError(f"tol must be positive, got {tol}")
        n_spatial = len(self._spatial_shape)
        if grid.ndim != n_spatial + 1:
            raise ValueError(
                f"grid order {grid.ndim} must be spatial order + 1 "
                f"({n_spatial + 1}); the last grid mode is time"
            )
        if grid.dims[-1] != 1:
            raise ValueError(
                f"time mode must not be partitioned while streaming; got "
                f"grid {grid.dims}"
            )
        self._grid = grid
        self._tol = float(tol)
        self._n_spatial = n_spatial
        #: per spatial mode, this rank's block rows of the basis (or None)
        self._bases_local: list[np.ndarray | None] = [None] * n_spatial
        #: replicated global core slabs (the compressed stream), time last
        self._core_slabs: list[np.ndarray] = []
        self._energy = 0.0
        self._n_steps = 0
        self._pending_zero = 0
        self._finalized = False

    # -- helpers -----------------------------------------------------------------

    @property
    def comm(self):
        return self._grid.comm

    @property
    def n_steps(self) -> int:
        return self._n_steps

    @property
    def current_ranks(self) -> tuple[int, ...]:
        """Current basis sizes for the non-streaming modes."""
        return tuple(
            0 if b is None else b.shape[1] for b in self._bases_local
        )

    @property
    def streamed_norm(self) -> float:
        """``||X||`` of everything ingested so far."""
        return float(np.sqrt(self._energy))

    def _project(self, slab: DistTensor) -> DistTensor:
        """Distributed ``slab x {U^(n)T}`` over the spatial modes."""
        return project_modes(slab, self._bases_local, range(self._n_spatial))

    # -- streaming ----------------------------------------------------------------

    def update(self, local_slab: np.ndarray) -> None:
        """Ingest this rank's block of one or more time steps (collective).

        ``local_slab`` has this rank's spatial block shape plus a trailing
        time axis (a single step may omit it).
        """
        if self._finalized:
            raise RuntimeError("cannot update a finalized streamer")
        arr = np.asarray(local_slab, dtype=np.float64)
        expected = local_shape(
            self._spatial_shape, self._grid.dims[:-1], self._grid.coords[:-1]
        )
        if arr.shape == expected:
            arr = arr.reshape(expected + (1,))
        if arr.shape[:-1] != expected:
            raise ValueError(
                f"local slab shape {arr.shape} does not match this rank's "
                f"block {expected} (+ time axis)"
            )
        slab = DistTensor(
            self._grid, self._spatial_shape + arr.shape[-1:],
            np.asfortranarray(arr),
        )
        slab_energy = slab.norm_sq()
        self._energy += slab_energy
        self._n_steps += arr.shape[-1]
        if slab_energy == 0.0:
            # Zero rows of the core, sized when the next slab is stored.
            self._pending_zero += arr.shape[-1]
            return

        budget = (self._tol**2) * slab_energy / 2.0
        if any(b is None for b in self._bases_local):
            # The streamer does its own error-budget accounting, so the
            # inner factorizations run full precision: letting REPRO_DTYPE
            # split the per-slab budget again would double-count it, and
            # the float32 noise floor can swamp the tiny slab tolerances.
            res = dist_sthosvd(
                slab,
                tol=float(np.sqrt(budget / slab_energy)),
                mode_order="natural",
                compute_dtype="float64",
            )
            self._bases_local = res.factors_local[: self._n_spatial]
            projected = self._project(slab)
        else:
            projected = self._project(slab)
            if slab_energy - projected.norm_sq() > budget:
                self._expand(slab, projected, budget)
                projected = self._project(slab)
        self._store_pending_zeros()
        self._core_slabs.append(projected.to_global())

    def _store_pending_zeros(self) -> None:
        if self._pending_zero:
            self._core_slabs.append(np.zeros(
                self.current_ranks + (self._pending_zero,), dtype=np.float64
            ))
            self._pending_zero = 0

    def _expand(
        self, slab: DistTensor, projected: DistTensor, budget: float
    ) -> None:
        back = reconstruct_modes(
            projected, self._bases_local, range(self._n_spatial)
        )
        residual = slab.with_local(slab.local - back.local)
        res_norm_sq = residual.norm_sq()
        if res_norm_sq == 0.0:
            return
        res = dist_sthosvd(
            residual, tol=float(np.sqrt(budget / res_norm_sq)),
            mode_order="natural",
            compute_dtype="float64",  # see update(): budget already split
        )
        grew = False
        for n in range(self._n_spatial):
            old = self._bases_local[n]
            new_dirs = res.factors_local[n]
            # Orthogonalize against the existing basis: needs the *global*
            # inner products, identical on all ranks of a mode column; the
            # QR of the extra block must also be global — do it on the
            # gathered matrices (small: I_n x r).
            old_full = gather_rows(self._grid, n, old)
            new_full = gather_rows(self._grid, n, new_dirs)
            extra = new_full - old_full @ (old_full.T @ new_full)
            q, r = np.linalg.qr(extra)
            keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.sqrt(res_norm_sq))
            # New directions, at most as many as the mode has room for.
            q = q[:, keep][:, : self._spatial_shape[n] - old_full.shape[1]]
            if q.shape[1] == 0:
                continue
            start, stop = block_range(
                self._spatial_shape[n], self._grid.dims[n], self._grid.coords[n]
            )
            self._bases_local[n] = np.hstack([old, q[start:stop]])
            grew = True
        if not grew:
            return
        # Zero-pad the accumulated (replicated) core slabs into the new
        # basis: new basis = [old, extra], so old coefficients keep their
        # global positions exactly.
        new_ranks = self.current_ranks
        for i, slab_global in enumerate(self._core_slabs):
            padded = np.zeros(new_ranks + (slab_global.shape[-1],), dtype=np.float64)
            padded[tuple(slice(0, s) for s in slab_global.shape)] = slab_global
            self._core_slabs[i] = padded

    # -- output ------------------------------------------------------------------------

    def finalize(self) -> TuckerTensor:
        """Recompress the accumulated core and return the decomposition.

        The result approximates the full streamed tensor with normalized
        RMS error at most ``tol``; the streamer becomes read-only
        afterwards.  Collective.
        """
        # Imported here: repro.core.sthosvd itself imports this package.
        from repro.core.sthosvd import sthosvd

        if self._n_steps == 0:
            raise RuntimeError("no data was streamed")
        if not self._core_slabs:
            raise ValueError(
                "streamed data is identically zero; nothing to decompose"
            )
        self._finalized = True
        self._store_pending_zeros()
        core = np.concatenate(self._core_slabs, axis=-1)
        inner = sthosvd(
            core, tol=self._tol / np.sqrt(2.0), mode_order="natural"
        )
        factors = []
        for n in range(self._n_spatial):
            u_full = gather_rows(self._grid, n, self._bases_local[n])
            factors.append(u_full @ inner.decomposition.factors[n])
        factors.append(inner.decomposition.factors[self._n_spatial])
        return TuckerTensor(
            core=inner.decomposition.core, factors=tuple(factors)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(spatial={self._spatial_shape}, "
            f"steps={self._n_steps}, ranks={self.current_ranks})"
        )
