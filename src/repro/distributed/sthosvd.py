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
from repro.core.errors import compression_ratio, error_bound
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
from repro.distributed.tsqr import dist_mode_svd
from repro.distributed.ttm import dist_ttm
from repro.mpi.reduce_ops import SUM
from repro.tensor.eig import EigResult
from repro.tensor.ttm import chain_order
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
    x_norm_sq:
        ``||X||^2`` of the input, exactly as summed (HOOI's fit quantity
        starts from it).
    mode_order:
        Processing order used.
    """

    core: DistTensor
    factors_local: list[np.ndarray]
    eigenvalues: list[np.ndarray]
    x_norm_sq: float
    mode_order: tuple[int, ...]

    @property
    def x_norm(self) -> float:
        """``||X||`` of the input."""
        return float(np.sqrt(self.x_norm_sq))

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
        return gather_rows(self.core.grid, mode, self.factors_local[mode])

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
        return reconstruct_modes(
            self.core, self.factors_local, range(self.core.ndim)
        )

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
        return error_bound(self.eigenvalues, self.ranks, self.x_norm)

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.shape, self.ranks)


def gather_rows(grid, mode: int, rows: np.ndarray) -> np.ndarray:
    """The whole matrix whose block rows the mode-``mode`` processor
    column holds, ``rows`` being this rank's (an all-gather)."""
    return np.vstack(grid.mode_column(mode).allgather(rows))


def project_modes(
    y: DistTensor,
    factors_local: Sequence[np.ndarray],
    modes: Sequence[int],
    strategy: str = "auto",
) -> DistTensor:
    """``y x_m U^(m)T`` for ``m`` in ``modes``, each factor given as this
    rank's block row — the decomposition direction, where no
    communication stages the factor (Sec. IV-B)."""
    for m in modes:
        u = factors_local[m]
        y = dist_ttm(y, u.T.copy(), m, u.shape[1], strategy=strategy)
    return y


def reconstruct_modes(
    y: DistTensor, factors_local: Sequence[np.ndarray], modes: Sequence[int]
) -> DistTensor:
    """``y x_m U^(m)`` for ``m`` in ``modes``: the reconstruction direction
    of Sec. IV-B, the gathered factor's columns blocked by this rank's
    local core extent.  The products run in the flop-minimal
    :func:`~repro.tensor.ttm.chain_order` of the global extents, the same
    on every rank."""
    full = {m: gather_rows(y.grid, m, factors_local[m]) for m in modes}
    for m in chain_order(
        (m, y.global_shape[m], u.shape[0]) for m, u in full.items()
    ):
        u = full.pop(m)
        start, stop = block_range(
            y.global_shape[m], y.grid.dims[m], y.grid.coords[m]
        )
        y = dist_ttm(y, u[:, start:stop].copy(), m, u.shape[0])
    return y


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


def _mode_factor(
    y: DistTensor,
    mode: int,
    method: str,
    rank: int | None = None,
    threshold: float | None = None,
    min_rank: int = 1,
    dtype: np.dtype | None = None,
) -> tuple[np.ndarray, EigResult]:
    """This rank's block row of ``U^(mode)`` and the spectrum behind it:
    Gram + eigenvectors (Algs. 4-5) or the Gram-free QR path (Sec. IX),
    each kernel charged to its ledger section."""
    comm = y.comm
    if method == "svd":
        with comm.section("svd"):
            return dist_mode_svd(
                y, mode, rank=rank, threshold=threshold, min_rank=min_rank,
                dtype=dtype,
            )
    with comm.section("gram"):
        s_rows = dist_gram(y, mode)
    with comm.section("evecs"):
        return dist_evecs(
            y, s_rows, mode, rank=rank, threshold=threshold,
            min_rank=min_rank, dtype=dtype,
        )


def _hooi_sweep(
    x: DistTensor,
    order: Sequence[int],
    factors: list,
    eigenvalues: list,
    method: str,
    ttm_strategy: str,
    dtype: np.dtype,
) -> DistTensor:
    """One HOOI sweep (Alg. 2 lines 4-9) against ``x``; returns the core.

    For each mode ``n`` in ``order``: project ``x`` onto every other
    mode's current factor, recompute ``U^(n)`` at its width and replace
    ``factors[n]`` / ``eigenvalues[n]``.  The last projection already
    carries every other new factor, so one more TTM yields the core.
    """
    comm = x.comm
    for n in order:
        with comm.section("ttm"):
            y = project_modes(
                x, factors, [m for m in order if m != n], ttm_strategy
            )
        factors[n], eig = _mode_factor(
            y, n, method, rank=factors[n].shape[1], dtype=dtype
        )
        eigenvalues[n] = eig.values
    with comm.section("ttm"):
        return project_modes(y, factors, [n], ttm_strategy)


def resolve_mode_order(
    order: Sequence[int] | str | None, n_modes: int
) -> list[int]:
    """A ``mode_order`` argument as a list: a permutation of the modes,
    ``"natural"`` or ``None`` (both increasing)."""
    if order is None or order == "natural":
        return list(range(n_modes))
    if isinstance(order, str):
        raise ValueError(
            f"unknown mode_order {order!r}; pass a permutation, 'natural', "
            f"or use greedy_flops_order/greedy_ratio_order"
        )
    order = [int(m) for m in order]
    if sorted(order) != list(range(n_modes)):
        raise ValueError(f"mode_order {order} is not a permutation of modes")
    return order


def _resolve_driver_config(
    dt: DistTensor,
    tol: float | None,
    ranks: Sequence[int] | None,
    mode_order: Sequence[int] | None,
    config: RuntimeConfig | None,
    plan: str | None,
) -> RuntimeConfig | None:
    """The config whose ``compute_dtype`` a driver call should run under.

    Precedence: explicit ``config=`` > explicit ``plan=`` > the
    ``REPRO_PLAN`` selector > none (the dtype falls back to the run's
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
    mode_order: Sequence[int] | str | None = None,
    ttm_strategy: str = "auto",
    method: str = "gram",
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
    numerical improvement, at roughly twice the cost).

    ``checkpoint=`` names a directory used for crash recovery: after
    each mode completes, every rank writes its shrunk core block and
    factor rows there (atomic per-mode commit, see
    :mod:`repro.io.tucker_io`), and a relaunch — e.g. a
    ``run_spmd(retry=RetryPolicy(...))`` attempt after a rank death —
    resumes from the last committed mode instead of recomputing,
    producing bit-identical factors.  The store is validated against the
    call's parameters (digest) and cleared on successful completion.

    ``config=`` pins the kernel precision to an explicit
    :class:`~repro.config.RuntimeConfig`'s ``compute_dtype`` for this
    call; ``plan=`` selects one instead: ``"auto"`` asks the perf model
    for this problem (see :func:`repro.perfmodel.autotune.plan_sthosvd`),
    ``"default"``/None keeps the run's active config, and any other
    string is parsed as a saved config's JSON.  ``None`` consults
    ``REPRO_PLAN``.

    ``compute_dtype=`` selects the kernel precision (default the
    resolved config's ``compute_dtype`` / ``REPRO_DTYPE``) under the
    contracts of :mod:`repro.core.precision`; ``"mixed"`` ends, when the
    measured float32 defect exceeds the precision share, with one float64
    :func:`~repro.distributed.hooi.dist_hooi` sweep against the original
    tensor.  Outputs (core and factors) are always returned in float64.
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
    order = resolve_mode_order(mode_order, n_modes)
    cfg = _resolve_driver_config(dt, tol, ranks, order, config, plan)
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
        factors[n], eig = _mode_factor(
            y, n, method,
            rank=None if threshold is not None else ranks[n],  # type: ignore[index]
            threshold=threshold, min_rank=dt.grid.dims[n], dtype=work,
        )
        eigenvalues[n] = eig.values
        with comm.section("ttm"):
            y = project_modes(y, factors, [n], ttm_strategy)  # type: ignore[arg-type]
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
                # One float64 HOOI sweep against the original tensor slabs:
                # the classic mixed-precision pattern (narrow sweep for the
                # subspaces and ranks, one wide sweep to restore accuracy).
                # The re-solved spectra make the error estimate an upper
                # estimate rather than exact; it is never below the truth.
                y = _hooi_sweep(
                    dt, order, factors, eigenvalues, method, ttm_strategy,
                    np.dtype(np.float64),
                )
    # Outputs are always float64, whatever the working dtype or the
    # input's: the compressed object is tiny, and downstream consumers
    # (reconstruction, I/O, error accounting) expect the historical dtype.
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
        x_norm_sq=x_norm_sq,
        mode_order=tuple(order),
    )
