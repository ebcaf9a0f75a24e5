"""Sequentially-truncated HOSVD — Alg. 1 of the paper.

ST-HOSVD processes modes one at a time: form the Gram matrix of the current
working tensor's mode-n unfolding, pick ``R_n`` from the eigenvalue tail
(given a tolerance) or use a prescribed rank, take the leading eigenvectors
as ``U^(n)``, and shrink the working tensor with a transposed TTM.  Because
the working tensor shrinks after every mode, later modes are much cheaper
than in the plain T-HOSVD.

Mode ordering matters only for cost, not correctness (Sec. VIII-C), and
the paper's rule is to go highest compression ratio ``I_n / R_n`` first
(Fig. 8b).  A tolerance-driven call without ``mode_order`` does that: the
driver predicts every mode's rank from a fixed-seed sample of its
unfolding's columns and processes the modes by ``greedy_ratio_order`` of
those ranks (:func:`~repro.distributed.sthosvd.plan_mode_order`); a call
with ``ranks=`` keeps increasing order.  This module also provides the
paper's other heuristic, ``greedy_flops_order`` (Vannieuwenhoven et al.'s
flop-minimizing rule).

The algorithm is written once, as the parallel driver
:func:`~repro.distributed.sthosvd.dist_sthosvd`: on a ``1 x ... x 1`` grid
its kernels are the sequential ones and its collectives identities, so
:func:`sthosvd` is that driver on :func:`~repro.distributed.grid.self_grid`,
run on the caller's array where it lies.  A C-ordered array runs as its
Fortran-ordered transpose; the plan's sample and tie-break are defined on
the caller's modes, so both layouts take the same logical order, and
``SthosvdResult.mode_order`` reports it in the caller's modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import error_bound
from repro.core.tucker import TuckerTensor
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.grid import self_grid
from repro.distributed.sthosvd import dist_sthosvd, resolve_mode_order
from repro.tensor.dense import as_ndarray
from repro.util.validation import check_shape_like, prod


@dataclass(frozen=True)
class SthosvdResult:
    """Decomposition plus the per-mode spectral information Alg. 1 produced.

    Attributes
    ----------
    decomposition:
        The compressed tensor.
    eigenvalues:
        Per mode (in *mode* index order, not processing order), the
        eigenvalue spectrum of the Gram matrix that produced ``U^(n)``.
        Note these are spectra of the partially-truncated working tensor,
        not of ``X`` itself, for every mode after the first processed.
    mode_order:
        The order in which modes were processed, in the caller's modes.
    x_norm_sq:
        ``||X||^2`` of the input as the driver carried it (HOOI's fit
        quantity starts from it).
    """

    decomposition: TuckerTensor
    eigenvalues: tuple[np.ndarray, ...]
    mode_order: tuple[int, ...]
    x_norm_sq: float

    @property
    def x_norm(self) -> float:
        """``||X||`` of the input, needed for error accounting."""
        return float(np.sqrt(self.x_norm_sq))

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.decomposition.ranks

    def error_estimate(self) -> float:
        """Normalized RMS error estimate from the truncated eigenvalue tails.

        For ST-HOSVD the squared error is exactly the sum over modes of the
        discarded eigenvalue mass of each processing step [22], so this
        estimate is tight (up to roundoff) without reconstructing.
        """
        return error_bound(self.eigenvalues, self.ranks, self.x_norm)


def one_rank_tensor(arr: np.ndarray) -> tuple[DistTensor, bool]:
    """``arr`` as the block of a one-rank :class:`DistTensor`, uncopied,
    and whether its modes are reversed.

    A C-ordered array is its Fortran-ordered transpose — the same buffer
    with the modes reversed, which is how the local kernels run it too
    (:func:`~repro.tensor.dense.fortran_view`) — so a caller runs a driver
    on the transpose with mode indices ``m -> N - 1 - m`` and per-mode
    lists reversed.  Only a strided array is copied, once, to Fortran
    order.
    """
    flipped = arr.flags.c_contiguous and not arr.flags.f_contiguous
    f = arr.T if flipped else arr
    return DistTensor(self_grid(arr.ndim), f.shape, f), flipped


def sthosvd(
    x: np.ndarray,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    mode_order: Sequence[int] | str | None = None,
    method: str = "gram",
) -> SthosvdResult:
    """Sequentially-truncated HOSVD (Alg. 1).

    Parameters
    ----------
    x:
        Dense input tensor (any order >= 1).
    tol:
        Relative error tolerance ``eps``: ranks are chosen per mode so the
        final normalized RMS error is at most ``eps`` (eq. 3, with the
        per-mode budget ``eps^2 ||X||^2 / N``).  Exactly one of ``tol`` /
        ``ranks`` must be given.
    ranks:
        Prescribed reduced dimensions ``R_n`` (e.g. for HOOI refinement or
        performance experiments).
    mode_order:
        Processing order: a permutation or ``"natural"`` (increasing).
        ``None`` is increasing with ``ranks=``; with ``tol=`` the driver
        plans it, highest predicted ``I_n / R_n`` first
        (:func:`~repro.distributed.sthosvd.plan_mode_order`), and
        ``SthosvdResult.mode_order`` reports the order taken.
    method:
        ``"gram"`` — the paper's Gram-matrix eigensolver (Alg. 1 verbatim;
        accuracy floor around sqrt(machine eps) ~ 1e-8 in the spectrum).
        ``"svd"`` — singular vectors through a streaming QR of the
        transposed unfolding, the numerically robust variant proposed in
        the paper's Sec. IX, required to realize tolerances at or below
        ~1e-6 on strongly compressible data.

    Returns
    -------
    SthosvdResult
    """
    arr = as_ndarray(x)
    n_modes = arr.ndim
    dt, flipped = one_rank_tensor(arr)
    if flipped and ranks is not None:
        ranks = ranks[::-1]
    step = -1 if flipped else 1
    # Driver mode m is the caller's mode labels[m] (a reversal is its own
    # inverse, so the same map takes caller modes to driver modes).
    labels = range(n_modes)[::step]
    if mode_order is not None or tol is None:  # else the driver plans it
        order = resolve_mode_order(mode_order, n_modes)
        mode_order = [labels[m] for m in order]
    t = dist_sthosvd(
        dt,
        tol=tol,
        ranks=ranks,
        mode_order=mode_order,
        method=method,
        compute_dtype="float64",  # REPRO_DTYPE does not apply
        mode_labels=labels,
    )
    core = t.core.local.T if flipped else t.core.local
    return SthosvdResult(
        decomposition=TuckerTensor(
            core=core, factors=tuple(t.factors_local[::step])
        ),
        eigenvalues=tuple(t.eigenvalues[::step]),
        mode_order=tuple(labels[m] for m in t.mode_order),
        x_norm_sq=t.x_norm_sq,
    )


def greedy_flops_order(shape: Sequence[int], ranks: Sequence[int]) -> list[int]:
    """Vannieuwenhoven et al.'s greedy mode order: minimize flops per step.

    At each step, among unprocessed modes pick the one whose processing
    (Gram + TTM on the current working tensor) costs fewest flops; the
    working tensor then shrinks in that mode.  The paper notes this
    heuristic is good but not always optimal (Sec. VIII-C).
    """
    shape = list(check_shape_like(shape, "shape"))
    ranks = check_shape_like(ranks, "ranks")
    if len(shape) != len(ranks):
        raise ValueError("shape and ranks differ in order")
    remaining = set(range(len(shape)))
    current = list(shape)
    order: list[int] = []
    while remaining:
        def step_flops(n: int) -> float:
            j = prod(current)
            return 2.0 * current[n] * j + 2.0 * ranks[n] * j

        best = min(sorted(remaining), key=step_flops)
        order.append(best)
        current[best] = ranks[best]
        remaining.remove(best)
    return order


def greedy_ratio_order(shape: Sequence[int], ranks: Sequence[int]) -> list[int]:
    """Highest compression ratio ``I_n / R_n`` first, ties in mode order:
    the paper's alternative heuristic (Sec. VIII-C, Fig. 8b) and the
    order :func:`~repro.distributed.sthosvd.dist_sthosvd` plans for a
    tolerance-driven call.

    Shrinking the working tensor fastest first cuts the cost of every
    later step.
    """
    shape = check_shape_like(shape, "shape")
    ranks = check_shape_like(ranks, "ranks")
    if len(shape) != len(ranks):
        raise ValueError("shape and ranks differ in order")
    return sorted(range(len(shape)), key=lambda n: ranks[n] / shape[n])
