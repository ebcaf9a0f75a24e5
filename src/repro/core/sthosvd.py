"""Sequentially-truncated HOSVD — Alg. 1 of the paper.

ST-HOSVD processes modes one at a time: form the Gram matrix of the current
working tensor's mode-n unfolding, pick ``R_n`` from the eigenvalue tail
(given a tolerance) or use a prescribed rank, take the leading eigenvectors
as ``U^(n)``, and shrink the working tensor with a transposed TTM.  Because
the working tensor shrinks after every mode, later modes are much cheaper
than in the plain T-HOSVD.

Mode ordering matters only for cost, not correctness (Sec. VIII-C); this
module also provides the two greedy ordering heuristics the paper discusses:
``greedy_flops_order`` (Vannieuwenhoven et al.'s flop-minimizing rule) and
``greedy_ratio_order`` (maximize the compression ratio ``I_n / R_n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.tucker import TuckerTensor
from repro.tensor.dense import as_ndarray, norm
from repro.tensor.eig import eigendecompose, rank_from_tolerance
from repro.tensor.gram import gram
from repro.tensor.qr import full_triangle, qr_r, spectrum_from_r
from repro.tensor.ttm import ttm
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
        The order in which modes were processed.
    x_norm:
        ``||X||`` of the input, needed for error accounting.
    """

    decomposition: TuckerTensor
    eigenvalues: tuple[np.ndarray, ...]
    mode_order: tuple[int, ...]
    x_norm: float

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.decomposition.ranks

    def error_estimate(self) -> float:
        """Normalized RMS error estimate from the truncated eigenvalue tails.

        For ST-HOSVD the squared error is exactly the sum over modes of the
        discarded eigenvalue mass of each processing step [22], so this
        estimate is tight (up to roundoff) without reconstructing.
        """
        total = 0.0
        for n in range(len(self.eigenvalues)):
            values = self.eigenvalues[n]
            r = self.ranks[n]
            total += float(np.sum(values[r:]))
        if self.x_norm == 0:
            raise ValueError("zero input tensor")
        return float(np.sqrt(max(0.0, total)) / self.x_norm)


def _resolve_order(
    order: Sequence[int] | str | None, n_modes: int
) -> list[int] | None:
    """Normalize the mode_order argument; None means natural order."""
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


def _mode_spectrum_gram(y: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (decreasing) and eigenvectors via the Gram matrix.

    The paper's production path: cheap (one syrk + one small symmetric
    eigensolve) but limited to accuracies above sqrt(machine epsilon),
    because forming ``Y Y^T`` squares the condition number.
    """
    eig = eigendecompose(gram(y, mode))
    return eig.values, eig.vectors


def _mode_spectrum_svd(y: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared singular values and left singular vectors of the unfolding.

    The numerically robust alternative the paper's Sec. IX proposes for
    eps near or below sqrt(machine epsilon): the streaming QR kernel
    reduces the tall-skinny ``Y_(n)^T`` to its ``I_n x I_n`` triangle
    where the tensor lies (about twice the Gram kernel's flops, the
    paper's "roughly twice the cost"), and the right singular vectors of
    that small triangle are the factor.  The same two calls as
    ``dist_mode_svd`` on one rank, so the bits match.
    """
    eig = spectrum_from_r(full_triangle(qr_r(y, mode)))
    return eig.values, eig.vectors


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
        Processing order: a permutation, ``"natural"``, or ``None``.
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
        for r, s in zip(ranks, arr.shape):
            if r > s:
                raise ValueError(f"rank {r} exceeds dimension {s}")
    order = _resolve_order(mode_order, n_modes)
    spectrum = _mode_spectrum_gram if method == "gram" else _mode_spectrum_svd

    x_norm = norm(arr)
    threshold = (
        (tol**2) * (x_norm**2) / n_modes if tol is not None else None
    )

    y = arr
    factors: list[np.ndarray | None] = [None] * n_modes
    eigenvalues: list[np.ndarray | None] = [None] * n_modes
    for n in order:
        values, vectors = spectrum(y, n)
        if threshold is not None:
            rn = rank_from_tolerance(values, threshold)
        else:
            rn = ranks[n]  # type: ignore[index]
        factors[n] = np.array(vectors[:, :rn], copy=True)
        eigenvalues[n] = values
        y = ttm(y, factors[n], n, transpose=True)

    decomposition = TuckerTensor(core=y, factors=tuple(factors))  # type: ignore[arg-type]
    return SthosvdResult(
        decomposition=decomposition,
        eigenvalues=tuple(eigenvalues),  # type: ignore[arg-type]
        mode_order=tuple(order),
        x_norm=x_norm,
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
    """The paper's alternative heuristic: process highest ``I_n / R_n`` first.

    Maximizing the per-step compression ratio shrinks the working tensor
    fastest, reducing the cost of all subsequent steps.
    """
    shape = check_shape_like(shape, "shape")
    ranks = check_shape_like(ranks, "ranks")
    if len(shape) != len(ranks):
        raise ValueError("shape and ranks differ in order")
    return sorted(range(len(shape)), key=lambda n: ranks[n] / shape[n])
