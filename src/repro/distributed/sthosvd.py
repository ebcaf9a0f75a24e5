"""Parallel ST-HOSVD driver and the distributed Tucker result object.

The driver strings together the three parallel kernels per mode — Gram
(Alg. 4), Eigenvectors (Alg. 5), TTM (Alg. 3) — exactly as Alg. 1
prescribes, shrinking the distributed working tensor in place.  Kernel
charges are attributed to ledger sections ``"gram"``/``"evecs"``/``"ttm"``,
which is how the benchmarks regenerate the paper's per-kernel runtime
breakdowns (Fig. 8) from *measured* simulator costs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import RuntimeConfig, resolve_plan
from repro.core.precision import (
    FLOAT32_NOISE_FLOOR,
    kernel_dtype,
    resolve_compute_dtype,
    split_tolerance,
)
from repro.core.tucker import TuckerTensor
from repro.resources import check_deadline
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.evecs import dist_evecs
from repro.distributed.gram import dist_gram
from repro.distributed.layout import block_range, local_block
from repro.distributed.ttm import dist_ttm
from repro.mpi.reduce_ops import SUM
from repro.util.validation import check_shape_like


@dataclass
class DistTucker:
    """A Tucker decomposition held in the paper's parallel distribution.

    The core is block distributed on the processor grid; each factor matrix
    is held as this rank's block row (redundant across its processor row,
    Sec. IV-B).

    Attributes
    ----------
    core:
        Distributed core tensor ``G``.
    factors_local:
        Per mode, this rank's ``(local I_n) x R_n`` block row of ``U^(n)``.
    eigenvalues:
        Per mode, the Gram eigenvalue spectrum observed when that mode was
        processed (identical on all ranks).
    x_norm:
        ``||X||`` of the input.
    mode_order:
        Processing order used.
    """

    core: DistTensor
    factors_local: list[np.ndarray]
    eigenvalues: list[np.ndarray]
    x_norm: float
    mode_order: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        """Global shape of the reconstructed tensor (collective call)."""
        return tuple(self._global_rows(n) for n in range(self.core.ndim))

    def _global_rows(self, mode: int) -> int:
        grid = self.core.grid
        col = grid.mode_column(mode)
        heights = col.allgather(self.factors_local[mode].shape[0])
        return int(sum(heights))

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.global_shape

    def factor_global(self, mode: int) -> np.ndarray:
        """Assemble the full ``I_n x R_n`` factor (all-gather over the column)."""
        col = self.core.grid.mode_column(mode)
        pieces = col.allgather(self.factors_local[mode])
        return np.vstack(pieces)

    def to_tucker(self, root: int | None = None) -> TuckerTensor | None:
        """Gather everything into a sequential :class:`TuckerTensor`.

        The gathered object is small (core + factors), which is the entire
        point of the compression.  By default every rank receives it
        (all-gathers; for analysis and testing).  With ``root=r`` the core
        blocks and one copy of each factor block row travel to rank ``r``
        only, in a single gather, and every other rank returns ``None`` —
        what a driver that only writes the model needs.  Collective.
        """
        if root is None:
            core = self.core.to_global()
            factors = tuple(
                self.factor_global(n) for n in range(self.core.ndim)
            )
            return TuckerTensor(core=core, factors=factors)
        grid = self.core.grid
        # A factor block row is replicated over its processor row; the
        # copy on the column through the grid origin is the one that goes.
        rows = [
            f if not any(c for m, c in enumerate(grid.coords) if m != n)
            else None
            for n, f in enumerate(self.factors_local)
        ]
        pieces = self.core.comm.gather(
            (grid.coords, self.core.local, rows), root=root
        )
        if pieces is None:
            return None
        core = np.empty(self.ranks, dtype=self.core.local.dtype, order="F")
        stacks: list[list] = [[None] * p for p in grid.dims]
        for coords, block, block_rows in pieces:
            core[local_block(self.ranks, grid.dims, coords)] = block
            for n, f in enumerate(block_rows):
                if f is not None:
                    stacks[n][coords[n]] = f
        return TuckerTensor(
            core=core, factors=tuple(np.vstack(rows) for rows in stacks)
        )

    def reconstruct_distributed(self) -> DistTensor:
        """Distributed reconstruction ``X~ = G x {U^(n)}`` (eq. 1).

        Each mode-n TTM uses the reconstruction-direction distribution of
        Sec. IV-B: the ``I_n x R_n`` factor's columns are blocked by the
        rank's local core extent.
        """
        y = self.core
        for n in range(self.core.ndim):
            u_full = self.factor_global(n)
            pn = y.grid.dims[n]
            start, stop = block_range(y.global_shape[n], pn, y.grid.coords[n])
            y = dist_ttm(y, u_full[:, start:stop].copy(), n, u_full.shape[0])
        return y

    def reconstruct_subtensor(self, indices) -> np.ndarray:
        """Reconstruct a subtensor on every rank (paper Sec. II-C).

        Gathers the (small) core and factors, then selects factor rows per
        ``indices`` exactly like
        :meth:`repro.core.tucker.TuckerTensor.reconstruct_subtensor`.  The
        gathered object is the compressed representation, so this is cheap
        regardless of the original tensor's size; collective call.
        """
        return self.to_tucker().reconstruct_subtensor(indices)

    def error_estimate(self) -> float:
        """Normalized RMS error from truncated eigenvalue tails (exact for
        ST-HOSVD, see :meth:`repro.core.sthosvd.SthosvdResult.error_estimate`)."""
        total = 0.0
        for n, values in enumerate(self.eigenvalues):
            total += float(np.sum(values[self.ranks[n]:]))
        if self.x_norm == 0:
            raise ValueError("zero input tensor")
        return float(np.sqrt(max(0.0, total)) / self.x_norm)

    @property
    def compression_ratio(self) -> float:
        shape = self.shape
        ranks = self.ranks
        storage = int(np.prod(ranks)) + sum(
            i * r for i, r in zip(shape, ranks)
        )
        return float(np.prod(shape)) / storage


def _checkpoint_digest(
    dt: DistTensor,
    tol: float | None,
    ranks: Sequence[int] | None,
    order: Sequence[int],
    method: str,
    compute: str = "float64",
) -> str:
    from repro.io.tucker_io import checkpoint_digest

    return checkpoint_digest(
        {
            "global_shape": [int(s) for s in dt.global_shape],
            "grid": [int(p) for p in dt.grid.dims],
            "n_ranks": dt.comm.size,
            "tol": tol,
            "ranks": None if ranks is None else [int(r) for r in ranks],
            "order": [int(n) for n in order],
            "method": method,
            "compute": compute,
        }
    )


def _checkpoint_resume(
    checkpoint: str | os.PathLike,
    digest: str,
    dt: DistTensor,
    factors: list[np.ndarray | None],
    eigenvalues: list[np.ndarray | None],
) -> tuple[int, DistTensor]:
    """Restore ``(completed steps, working tensor)`` from a committed
    checkpoint, or ``(0, dt)`` when none exists.

    Safe to run concurrently on all ranks: the committed ``meta.json``
    is stable (nobody writes it until every rank is past this point),
    and each rank loads only its own step file.
    """
    from repro.io.tucker_io import load_checkpoint_state, read_checkpoint_meta

    check_deadline("checkpoint resume")
    meta = read_checkpoint_meta(checkpoint)
    if meta is None:
        return 0, dt
    if meta["digest"] != digest:
        raise ValueError(
            f"checkpoint {os.fspath(checkpoint)!r} was written for "
            "different parameters (shape, grid, tol/ranks, mode order, or "
            "method); refusing to resume from it"
        )
    completed = int(meta["completed"])
    if completed <= 0:
        return 0, dt
    state = load_checkpoint_state(checkpoint, completed - 1, dt.comm.rank)
    for mode, f in state["factors"].items():
        factors[mode] = f
    for mode, e in state["eigenvalues"].items():
        eigenvalues[mode] = e
    return completed, dt.with_local(state["local"], state["global_shape"])


def _checkpoint_commit(
    checkpoint: str | os.PathLike,
    digest: str,
    step: int,
    order: Sequence[int],
    y: DistTensor,
    factors: list[np.ndarray | None],
    eigenvalues: list[np.ndarray | None],
) -> None:
    """Commit the state after step ``step`` (position in ``order``).

    Every rank writes its step file, a barrier establishes that all
    files exist, then rank 0 publishes ``meta.json`` and retires the
    superseded step.  A crash anywhere in between leaves the previous
    committed checkpoint fully intact.
    """
    from repro.io.tucker_io import (
        clear_checkpoint_step,
        commit_checkpoint_meta,
        save_checkpoint_state,
    )

    comm = y.comm
    check_deadline("checkpoint commit")
    save_checkpoint_state(
        checkpoint,
        step,
        comm.rank,
        y.local,
        y.global_shape,
        {n: f for n, f in enumerate(factors) if f is not None},
        {n: e for n, e in enumerate(eigenvalues) if e is not None},
    )
    comm.barrier()
    if comm.rank == 0:
        commit_checkpoint_meta(
            checkpoint, digest, step + 1, comm.size, tuple(order)
        )
        if step > 0:
            clear_checkpoint_step(checkpoint, step - 1)
    comm.barrier()


def _orthonormality_defect(grid, factors: Sequence[np.ndarray]) -> float:
    """Measured float32 precision loss: ``sqrt(sum_n ||U_n^T U_n - I||_F^2)``.

    Each factor is held as a block row distributed over its mode column,
    so every ``U^T U`` is one small ``R_n x R_n`` all-reduce.  Computed in
    float64 regardless of the factors' dtype — this is the *measurement*
    of the float32 sweep's defect, and must not itself drown in float32
    roundoff.  Identical on all ranks (the all-reduce results are).
    """
    total = 0.0
    for n, u in enumerate(factors):
        col = grid.mode_column(n)
        u64 = np.asarray(u, dtype=np.float64)
        g = np.asarray(col.allreduce(u64.T @ u64, SUM))
        g = g - np.eye(g.shape[0])
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def _refine_sweep_f64(
    dt: DistTensor,
    order: Sequence[int],
    target_ranks: Sequence[int],
    factors: list,
    eigenvalues: list,
    ttm_strategy: str,
    method: str,
    tsqr_tree: str | None,
    overlap: bool | None,
) -> DistTensor:
    """One float64 HOOI-style sweep against the original tensor slabs.

    For each mode (in the driver's order): project the *original* float64
    tensor onto every other mode's current factor, recompute this mode's
    factor at its fixed rank, and update it in place.  The final mode's
    projection yields the refined core.  This is exactly the
    :func:`~repro.distributed.hooi.dist_hooi` inner iteration, run once —
    the classic mixed-precision pattern: cheap narrow sweep for the
    subspaces and ranks, one wide sweep to restore accuracy.

    After refinement each ``eigenvalues[n]`` is the spectrum seen while
    *re*-solving mode ``n`` on the projected tensor, so the sum-of-tails
    error estimate becomes an upper estimate rather than exact (the
    ST-HOSVD identity no longer applies); it is never smaller than the
    true residual.
    """
    y = dt
    for n in order:
        z = dt
        for m in order:
            if m == n:
                continue
            u64 = np.asarray(factors[m], dtype=np.float64)
            z = dist_ttm(
                z, u64.T.copy(), m, target_ranks[m], strategy=ttm_strategy,
                overlap=overlap,
            )
        if method == "svd":
            from repro.distributed.tsqr import dist_mode_svd

            u_local, eig = dist_mode_svd(
                z, n, rank=target_ranks[n], overlap=overlap, tree=tsqr_tree
            )
        else:
            s_rows = dist_gram(z, n, overlap=overlap)
            u_local, eig = dist_evecs(z, s_rows, n, rank=target_ranks[n])
        factors[n] = u_local
        eigenvalues[n] = eig.values
        if n == order[-1]:
            # The last projection chain already carries every other mode's
            # refined factor, so one more TTM yields the refined core.
            y = dist_ttm(
                z, u_local.T.copy(), n, target_ranks[n],
                strategy=ttm_strategy, overlap=overlap,
            )
    return y


def _resolve_driver_config(
    dt: DistTensor,
    tol: float | None,
    ranks: Sequence[int] | None,
    mode_order: Sequence[int] | None,
    config: RuntimeConfig | None,
    plan: str | None,
) -> RuntimeConfig | None:
    """The kernel-knob config a driver call should run under.

    Precedence: explicit ``config=`` > explicit ``plan=`` > the
    ``REPRO_PLAN`` selector > none (every kernel falls back to the run's
    active config / environment).  ``plan="auto"`` asks the perf model
    (:func:`repro.perfmodel.autotune.plan_sthosvd`) using this call's
    actual shape, ranks/tol, grid and the ledger's machine constants —
    a pure function of collectively-identical arguments, so every rank
    selects the same plan without communicating.  Any other selector is
    parsed as a saved :class:`RuntimeConfig` JSON object.
    """
    if config is not None:
        if not isinstance(config, RuntimeConfig):
            raise TypeError(
                f"config must be a RuntimeConfig or None, got "
                f"{type(config).__name__}"
            )
        return config
    selector = resolve_plan(plan)
    if selector is None:
        return None
    if selector == "auto":
        from repro.perfmodel.autotune import plan_sthosvd

        return plan_sthosvd(
            dt.global_shape,
            ranks=ranks,
            tol=tol,
            grid=dt.grid.dims,
            machine=dt.comm.ledger.machine,
            mode_order=mode_order,
        ).config
    return RuntimeConfig.from_json(selector)


def dist_sthosvd(
    dt: DistTensor,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    mode_order: Sequence[int] | None = None,
    ttm_strategy: str = "auto",
    method: str = "gram",
    tsqr_tree: str | None = None,
    checkpoint: str | os.PathLike | None = None,
    config: RuntimeConfig | None = None,
    plan: str | None = None,
    compute_dtype: str | None = None,
) -> DistTucker:
    """Parallel ST-HOSVD (Alg. 1 on the Sec. V kernels).

    Parameters mirror :func:`repro.core.sthosvd.sthosvd`; ``dt`` is the
    block-distributed input.  All ranks must call this collectively with
    identical arguments.  ``method="svd"`` replaces the Gram + eigenvector
    kernels with the TSQR-based factor computation of
    :func:`repro.distributed.tsqr.dist_mode_svd` (the paper's Sec. IX
    numerical improvement, at roughly twice the cost); ``tsqr_tree``
    selects its reduction tree (``"binary"``/``"butterfly"``, default the
    ``REPRO_TSQR_TREE`` environment switch — factors are bit-identical
    across tree choices).

    ``checkpoint=`` names a directory used for crash recovery: after
    each mode completes, every rank writes its shrunk core block and
    factor rows there (atomic per-mode commit, see
    :mod:`repro.io.tucker_io`), and a relaunch — e.g. a
    ``run_spmd(retry=RetryPolicy(...))`` attempt after a rank death —
    resumes from the last committed mode instead of recomputing,
    producing bit-identical factors.  The store is validated against the
    call's parameters (digest) and cleared on successful completion.

    ``config=`` pins the kernel tuning knobs (overlap, TSQR tree, TTM
    batch threshold) to an explicit :class:`~repro.config.RuntimeConfig`
    for this call; ``plan=`` selects one instead: ``"auto"`` asks the
    perf model for this problem (see
    :func:`repro.perfmodel.autotune.plan_sthosvd`), ``"default"``/None
    keeps the run's active config, and any other string is parsed as a
    saved config's JSON.  ``None`` consults ``REPRO_PLAN``.  Every
    *scheduling* knob is pure tuning: factors and core are bit-identical
    across plans on a fixed grid.  An explicit ``tsqr_tree=`` still wins
    over the plan.

    ``compute_dtype=`` selects the kernel precision (default the
    resolved config's ``compute_dtype`` / ``REPRO_DTYPE``): ``"float64"``
    is the historical bit-exact pipeline; ``"float32"`` runs
    Gram/TSQR/TTM narrow end to end (half the bytes on every ring hop,
    allgather and reduce) and delivers the requested truncation error
    plus a single-precision noise floor
    (:func:`repro.core.precision.float32_error_budget`); ``"mixed"``
    splits ``tol`` into truncation and precision shares (see
    :mod:`repro.core.precision`), truncates against the tighter share,
    and — only when the measured float32 defect exceeds the precision
    share — runs one float64 refinement sweep against the original
    tensor slabs, so the delivered relative error still meets ``tol``.
    Outputs (core and factors) are always returned in float64.
    """
    n_modes = dt.ndim
    if (tol is None) == (ranks is None):
        raise ValueError("specify exactly one of tol= or ranks=")
    if tol is not None and tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if method not in ("gram", "svd"):
        raise ValueError(f"unknown method {method!r}; use 'gram' or 'svd'")
    if ranks is not None:
        ranks = check_shape_like(ranks, "ranks")
        if len(ranks) != n_modes:
            raise ValueError(f"need {n_modes} ranks, got {len(ranks)}")
        for r, (s, p) in zip(ranks, zip(dt.global_shape, dt.grid.dims)):
            if r > s:
                raise ValueError(f"rank {r} exceeds dimension {s}")
            if r < p:
                raise ValueError(
                    f"rank {r} smaller than grid extent {p}; use a smaller grid"
                )
    order = (
        list(range(n_modes))
        if mode_order is None
        else [int(m) for m in mode_order]
    )
    if sorted(order) != list(range(n_modes)):
        raise ValueError(f"mode_order {mode_order} is not a permutation")
    cfg = _resolve_driver_config(dt, tol, ranks, order, config, plan)
    overlap = cfg.overlap if cfg is not None else None
    if tsqr_tree is None and cfg is not None:
        tsqr_tree = cfg.tsqr_tree
    if compute_dtype is None and cfg is not None:
        compute_dtype = cfg.compute_dtype
    compute = resolve_compute_dtype(compute_dtype)
    work = kernel_dtype(compute)

    comm = dt.comm
    x_norm_sq = dt.norm_sq()
    # Mixed mode truncates against the tighter share of the split budget;
    # the rest of the budget is reserved for float32 precision loss.
    tol_trunc = tol
    prec_share = 0.0
    if tol is not None and compute == "mixed":
        tol_trunc, prec_share = split_tolerance(tol)
    threshold = (
        (tol_trunc**2) * x_norm_sq / n_modes if tol_trunc is not None
        else None
    )

    y = dt
    if work == np.float32:
        # One cast at the driver boundary; every kernel below follows the
        # working dtype, so rings, allgathers and reduces all ship narrow
        # words from here on.
        y = dt.with_local(np.asarray(dt.local, dtype=np.float32))
    factors: list[np.ndarray | None] = [None] * n_modes
    eigenvalues: list[np.ndarray | None] = [None] * n_modes
    completed = 0
    ckpt_digest = ""
    if checkpoint is not None:
        ckpt_digest = _checkpoint_digest(dt, tol, ranks, order, method,
                                         compute)
        with comm.section("checkpoint"):
            completed, y = _checkpoint_resume(
                checkpoint, ckpt_digest, y, factors, eigenvalues
            )
    for step, n in enumerate(order):
        if step < completed:
            continue
        # Threshold-based selection is floored at the grid extent: the
        # block distribution needs one output row per processor in the
        # mode (strictly more accurate than requested, never worse).
        pn = dt.grid.dims[n]
        if method == "svd":
            from repro.distributed.tsqr import dist_mode_svd

            with comm.section("svd"):
                if threshold is not None:
                    u_local, eig = dist_mode_svd(
                        y, n, threshold=threshold, min_rank=pn,
                        overlap=overlap, tree=tsqr_tree,
                    )
                else:
                    u_local, eig = dist_mode_svd(
                        y, n, rank=ranks[n],  # type: ignore[index]
                        overlap=overlap, tree=tsqr_tree,
                    )
                rn = u_local.shape[1]
        else:
            with comm.section("gram"):
                s_rows = dist_gram(y, n, overlap=overlap)
            with comm.section("evecs"):
                if threshold is not None:
                    u_local, eig = dist_evecs(
                        y, s_rows, n, threshold=threshold, min_rank=pn
                    )
                else:
                    u_local, eig = dist_evecs(y, s_rows, n, rank=ranks[n])  # type: ignore[index]
                rn = u_local.shape[1]
        with comm.section("ttm"):
            y = dist_ttm(
                y, u_local.T.copy(), n, rn, strategy=ttm_strategy,
                overlap=overlap,
            )
        factors[n] = u_local
        eigenvalues[n] = eig.values
        if checkpoint is not None:
            with comm.section("checkpoint"):
                _checkpoint_commit(
                    checkpoint, ckpt_digest, step, order, y,
                    factors, eigenvalues,
                )

    if compute == "mixed" and tol is not None:
        # Precision-share gate: the float32 sweep's residual estimate is
        # the single-precision noise floor plus the measured
        # orthonormality defect of the computed factors.  Only when it
        # exceeds the reserved share does the float64 refinement sweep
        # run — loose tolerances keep the full bandwidth win.
        with comm.section("refine"):
            est_prec = FLOAT32_NOISE_FLOOR + _orthonormality_defect(
                dt.grid, factors  # type: ignore[arg-type]
            )
            if est_prec > prec_share:
                y = _refine_sweep_f64(
                    dt, order, y.global_shape, factors, eigenvalues,
                    ttm_strategy, method, tsqr_tree, overlap,
                )
    if work == np.float32:
        # Outputs are always float64: the compressed object is tiny, and
        # downstream consumers (reconstruction, I/O, error accounting)
        # expect the historical dtype.
        factors = [np.asarray(f, dtype=np.float64) for f in factors]
        if y.local.dtype != np.float64:
            y = y.with_local(np.asarray(y.local, dtype=np.float64))

    if checkpoint is not None:
        # The run is complete; restart files are transient by design —
        # a later call with the same parameters must recompute, not
        # replay stale state.
        with comm.section("checkpoint"):
            comm.barrier()
            if comm.rank == 0:
                from repro.io.tucker_io import clear_checkpoint

                clear_checkpoint(checkpoint)

    return DistTucker(
        core=y,
        factors_local=list(factors),  # type: ignore[arg-type]
        eigenvalues=list(eigenvalues),  # type: ignore[arg-type]
        x_norm=float(np.sqrt(x_norm_sq)),
        mode_order=tuple(order),
    )
