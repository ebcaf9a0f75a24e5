"""Parallel ST-HOSVD driver and the distributed Tucker result object.

The driver strings together the three parallel kernels per mode — Gram
(Alg. 4), Eigenvectors (Alg. 5), TTM (Alg. 3) — exactly as Alg. 1
prescribes, shrinking the distributed working tensor in place.  Kernel
charges are attributed to ledger sections ``"gram"``/``"evecs"``/``"ttm"``,
which is how the benchmarks regenerate the paper's per-kernel runtime
breakdowns (Fig. 8) from *measured* simulator costs.  A tolerance-driven
call also plans its mode order (:func:`plan_mode_order`, section
``"plan"``): the paper's ratio rule on ranks predicted from a sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
from repro.tensor.eig import EigResult, rank_from_tolerance
from repro.tensor.ttm import chain_order
from repro.util.validation import check_shape_like, prod

#: Fibres a tolerance-driven call samples per row of each mode's unfolding
#: to predict the ranks its mode order is planned on:
#: ``c_n = min(cols_n, PLAN_FIBRES * I_n)``.
PLAN_FIBRES = 8
#: Seed of that sample; mode ``n``'s fibres come from stream ``(seed, n)``.
PLAN_SEED = 1608


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
        The order the modes were processed in: the caller's, or the one
        the driver planned for a tolerance-driven call without one.
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
) -> tuple[int, DistTensor, float | None]:
    """Restore ``(completed steps, working tensor, ||X||^2)`` from a
    committed checkpoint, or ``(0, dt, None)`` when none exists.

    Safe to run concurrently on all ranks: the committed ``meta.json``
    is stable (nobody writes it until every rank is past this point),
    and each rank loads only its own step file.
    """
    from repro.io.tucker_io import load_checkpoint_state, read_checkpoint_meta

    check_deadline("checkpoint resume")
    meta = read_checkpoint_meta(checkpoint)
    if meta is None:
        return 0, dt, None
    if meta["digest"] != digest:
        raise ValueError(
            f"checkpoint {os.fspath(checkpoint)!r} was written for "
            "different parameters (shape, grid, tol/ranks, mode order, or "
            "method); refusing to resume from it"
        )
    completed = int(meta["completed"])
    if completed <= 0:
        return 0, dt, None
    state = load_checkpoint_state(checkpoint, completed - 1, dt.comm.rank)
    for mode, f in state["factors"].items():
        factors[mode] = f
    for mode, e in state["eigenvalues"].items():
        eigenvalues[mode] = e
    return (
        completed,
        dt.with_local(state["local"], state["global_shape"]),
        float(meta["x_norm_sq"]),
    )


def _checkpoint_commit(
    checkpoint: str | os.PathLike,
    digest: str,
    step: int,
    order: Sequence[int],
    y: DistTensor,
    factors: list[np.ndarray | None],
    eigenvalues: list[np.ndarray | None],
    x_norm_sq: float,
) -> None:
    """Commit the state after step ``step`` (position in ``order``),
    with the ``||X||^2`` the run carries.

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
            checkpoint, digest, step + 1, comm.size, tuple(order), x_norm_sq
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


def _mode_labels(labels: Sequence[int] | None, n_modes: int) -> list[int]:
    """``labels`` as a list, checked to permute the modes (default the
    modes themselves)."""
    if labels is None:
        return list(range(n_modes))
    labels = [int(m) for m in labels]
    if sorted(labels) != list(range(n_modes)):
        raise ValueError(f"mode labels {labels} are not a permutation of modes")
    return labels


def _plan_fibres(
    shape: Sequence[int], labels: Sequence[int], m: int
) -> np.ndarray:
    """Global indices of the fibres the plan samples for mode ``m``: one
    column per fibre, row ``m`` zero.

    ``labels[k]`` is the caller's index of mode ``k``.  The stream
    ``(PLAN_SEED, labels[m])``, the draw (one Fortran-order index over
    the caller's other modes) and the sort are all defined on the caller's
    modes, so a transposed view samples the same fibres in the same order.
    A mode with no more than ``PLAN_FIBRES * I_m`` fibres takes them all.
    """
    n_modes = len(shape)
    label = labels[m]
    caller = [shape[labels.index(k)] for k in range(n_modes)]
    others = [k for k in range(n_modes) if k != label]
    cols = prod(shape) // shape[m]
    if cols <= PLAN_FIBRES * shape[m]:
        lin = np.arange(cols)
    else:
        rng = np.random.default_rng((PLAN_SEED, label))
        lin = np.sort(rng.integers(0, cols, size=PLAN_FIBRES * shape[m]))
    idx = np.zeros((n_modes, lin.size), dtype=np.int64)
    idx[others] = np.unravel_index(lin, [caller[k] for k in others], order="F")
    return idx[list(labels)]


def plan_mode_order(
    y: DistTensor, budget: float, labels: Sequence[int] | None = None
) -> list[int]:
    """The order a tolerance-driven ST-HOSVD of ``y`` processes its modes.

    Every mode's rank is predicted from a fixed-seed sample of its
    unfolding's columns (``c_n`` fibres, :data:`PLAN_FIBRES`): the rank
    :func:`~repro.tensor.eig.rank_from_tolerance` picks from the spectrum
    of ``A^T A``, ``A`` the ``c_n x I_n`` sample, when the dropped tail
    may be ``budget`` (``tol^2 / N``) of the spectrum's sum.  The sample
    normalises itself, so the plan needs no ``||X||^2``: the driver
    takes that from the first mode it processes.  The modes then go by
    :func:`~repro.core.sthosvd.greedy_ratio_order` on those ranks.  Each
    rank copies its rows of the sampled fibres it holds into the sample,
    zeros elsewhere, and one all-reduce, in ledger section ``"plan"``,
    gives every rank the same sample, so the order depends only on the
    global tensor and ``threshold`` — not on the grid, the backend or the
    block layout.  ``labels`` (default the modes themselves) are the
    caller's indices of ``y``'s modes, on which the sample and the
    tie-break are defined.  Collective.
    """
    # Imported here: repro.core.sthosvd itself imports this module.
    from repro.core.sthosvd import greedy_ratio_order

    labels = _mode_labels(labels, y.ndim)
    shape = y.global_shape
    block = local_block(tuple(shape), tuple(y.grid.dims), tuple(y.grid.coords))
    extent = y.local.shape
    lo = np.array([b.start for b in block], dtype=np.int64)[:, None]
    with y.comm.section("plan"):
        fibres = [_plan_fibres(shape, labels, m) for m in range(y.ndim)]
        share = np.zeros(
            sum(f.shape[1] * s for f, s in zip(fibres, shape)), dtype=np.float64
        )
        offset = 0
        for m, idx in enumerate(fibres):
            c = idx.shape[1]
            a = share[offset:offset + c * shape[m]].reshape(c, shape[m])
            offset += a.size
            rel = idx - lo
            inside = (rel >= 0) & (rel < np.array(extent)[:, None])
            inside[m] = True
            owned = np.flatnonzero(inside.all(axis=0))
            if not owned.size:
                continue
            # Each owned fibre is one (lead, trail) column of the block's
            # mode-m unfolding seen as lead x I_m x trail.
            rel = rel[:, owned]
            lead = np.ravel_multi_index(rel[:m], extent[:m], order="F")
            trail = np.ravel_multi_index(rel[m + 1:], extent[m + 1:], order="F")
            unfolded = y.local.reshape(
                (prod(extent[:m]), extent[m], prod(extent[m + 1:])), order="F"
            )
            a[owned, block[m]] = unfolded[lead, :, trail]
        sample = np.asarray(y.comm.allreduce(share, SUM))
        predicted = [0] * y.ndim
        offset = 0
        for m, idx in enumerate(fibres):
            c = idx.shape[1]
            a = sample[offset:offset + c * shape[m]].reshape(c, shape[m])
            offset += c * shape[m]
            y.comm.add_flops(shape[m] * (shape[m] + 1) * c)
            values = np.clip(np.linalg.eigvalsh(a.T @ a)[::-1], 0.0, None)
            predicted[labels[m]] = rank_from_tolerance(
                values, budget * float(np.sum(values))
            )
    caller_shape = [shape[labels.index(k)] for k in range(y.ndim)]
    return [
        labels.index(k) for k in greedy_ratio_order(caller_shape, predicted)
    ]


def resolve_mode_order(
    order: Sequence[int] | str | None, n_modes: int
) -> list[int]:
    """A ``mode_order`` argument as a list: a permutation of the modes,
    or ``"natural"`` / ``None``, both increasing here.  (A
    tolerance-driven :func:`dist_sthosvd` plans ``None`` with
    :func:`plan_mode_order` before it gets here.)"""
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


def dist_sthosvd(
    dt: DistTensor,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    mode_order: Sequence[int] | str | None = None,
    ttm_strategy: str = "auto",
    method: str = "gram",
    checkpoint: str | os.PathLike | None = None,
    compute_dtype: str | None = None,
    *,
    mode_labels: Sequence[int] | None = None,
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

    ``compute_dtype=`` selects the kernel precision (default the run's
    ``RuntimeConfig.compute_dtype`` / ``REPRO_DTYPE``) under the
    contracts of :mod:`repro.core.precision`; ``"mixed"`` ends, when the
    measured float32 defect exceeds the precision share, with one float64
    :func:`~repro.distributed.hooi.dist_hooi` sweep against the original
    tensor.  Outputs (core and factors) are always returned in float64.

    ``||X||^2`` (``DistTucker.x_norm_sq``, the truncation threshold's
    scale) costs no pass of its own: it is the sum of the first processed
    mode's whole spectrum (``trace S_n`` on the Gram path, ``||R||_F^2``
    on the QR path), which that mode computes at full rank before it is
    truncated.  Only a float32 sweep (``"float32"``, ``"mixed"``) keeps a
    float64 norm pass, since a float32 spectrum cannot supply it.

    ``mode_order=`` is a permutation, ``"natural"``, or ``None``.  With
    ``ranks=``, ``None`` is increasing order.  With ``tol=``, ``None``
    asks the driver to plan the order as well as the ranks:
    :func:`plan_mode_order` predicts every rank from a fixed-seed
    fibre sample (one all-reduce, ledger section ``"plan"``) and the
    modes go highest ``I_n / R_n`` first, the same order on every grid
    and backend — unless the grid divides the mode that order puts
    first but not mode 0.  Then the modes go in increasing order, the
    order :func:`~repro.distributed.grid.choose_grid` scores grids in:
    the Gram of a divided first mode rings the whole tensor.  A grid
    that divides mode 0 as well keeps the plan, as increasing order
    would start on a divided mode too.
    ``mode_labels=`` (checked to permute the modes, whether or not the
    order is planned) gives the caller's index of each of ``dt``'s
    modes, on which that sample and its tie-break are defined (default
    ``dt``'s own): a caller that runs its tensor as a transpose passes
    the reversed modes and gets the order its own layout would.
    ``DistTucker.mode_order`` is the order processed.
    """
    n_modes = dt.ndim
    if (tol is None) == (ranks is None):
        raise ValueError("specify exactly one of tol= or ranks=")
    if tol is not None and not tol > 0:  # NaN too
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
    labels = _mode_labels(mode_labels, n_modes)
    planned = mode_order is None and tol is not None and n_modes > 1
    order = None if planned else resolve_mode_order(mode_order, n_modes)
    compute = resolve_compute_dtype(compute_dtype)
    work = kernel_dtype(compute)

    comm = dt.comm
    # Mixed mode truncates against the tighter share of the split budget;
    # the rest of the budget is reserved for float32 precision loss.
    tol_trunc = tol
    prec_share = 0.0
    if tol is not None and compute == "mixed":
        tol_trunc, prec_share = split_tolerance(tol)
    if planned:
        order = plan_mode_order(dt, tol_trunc**2 / n_modes, labels)
        if dt.grid.dims[order[0]] > 1 and dt.grid.dims[0] == 1:
            # choose_grid scores grids in increasing order.  A divided
            # first mode would ring the whole tensor through its Gram,
            # which costs more than the plan saves: keep that order,
            # whose first mode is undivided.  On a grid that divides mode
            # 0 as well, increasing order starts on a divided mode too,
            # so the plan stands.
            order = list(range(n_modes))
    # ||X||^2 is the whole spectrum of the first mode processed (trace S_n,
    # or ||R||_F^2), summed before that mode is truncated.  A float32
    # spectrum cannot supply it, so a narrow sweep keeps the norm pass.
    x_norm_sq = dt.norm_sq() if work == np.float32 else None

    def threshold(x_norm_sq: float) -> float | None:
        return None if tol_trunc is None else (tol_trunc**2) * x_norm_sq / n_modes

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
            completed, y, stored = _checkpoint_resume(
                checkpoint, ckpt_digest, y, factors, eigenvalues
            )
        if completed:
            x_norm_sq = stored
    for step, n in enumerate(order):
        if step < completed:
            continue
        # Threshold-based selection is floored at the grid extent: the
        # block distribution needs one output row per processor in the
        # mode (strictly more accurate than requested, never worse).
        if x_norm_sq is None:
            # This mode sees all of X: factor it at full rank, sum the
            # spectrum, then cut the factor to the rank the sum implies.
            u, eig = _mode_factor(
                y, n, method, rank=y.global_shape[n], dtype=work
            )
            x_norm_sq = float(np.sum(eig.values))
            cut = threshold(x_norm_sq)
            keep = (
                ranks[n] if cut is None  # type: ignore[index]
                else max(dt.grid.dims[n], rank_from_tolerance(eig.values, cut))
            )
            factors[n] = np.array(u[:, :keep])
        else:
            cut = threshold(x_norm_sq)
            factors[n], eig = _mode_factor(
                y, n, method,
                rank=None if cut is not None else ranks[n],  # type: ignore[index]
                threshold=cut, min_rank=dt.grid.dims[n], dtype=work,
            )
        eigenvalues[n] = eig.values
        with comm.section("ttm"):
            y = project_modes(y, factors, [n], ttm_strategy)  # type: ignore[arg-type]
        if checkpoint is not None:
            with comm.section("checkpoint"):
                _checkpoint_commit(
                    checkpoint, ckpt_digest, step, order, y,
                    factors, eigenvalues, x_norm_sq,
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
