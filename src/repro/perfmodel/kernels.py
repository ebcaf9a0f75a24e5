"""Per-kernel cost and memory formulas of the parallel kernels (paper Sec. V).

Each function returns a :class:`KernelCost` splitting modeled time into
computation (gamma), bandwidth (beta), and latency (alpha) components, plus
raw counters, for one of the paper's three kernels:

* TTM (Alg. 3):      ``C = 2 gamma J K / P  +  alpha P_n log P_n
  + beta (P_n - 1) J_hat_n K / P``
* Gram (Alg. 4):     ``C = 2 gamma J_n J / P  +  2 (P_n - 1)(alpha + beta J / P)
  + 2 alpha log P_hat_n  +  2 beta (P_hat_n - 1) J_n^2 / P``
* Evecs (Alg. 5):    ``C = alpha log P_n + beta (P_n-1)/P_n J_n^2
  + gamma (10/3) J_n^3``

with ``J = prod(shape)``, ``J_hat_n = J / J_n``, ``P = prod(grid)``,
``P_hat_n = P / P_n``.  Memory formulas (in words per processor) follow the
``M_TTM`` / ``M_GRAM`` / ``M_EIG`` expressions of the same section.

Shapes need not divide evenly by the grid in real runs, but the model (like
the paper's analysis) assumes even division; callers pass exact sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.perfmodel.machine import MachineSpec
from repro.util.validation import check_axis, check_shape_like, prod


@dataclass(frozen=True)
class KernelCost:
    """Modeled cost of one parallel kernel invocation (per-processor).

    ``time`` components are seconds; counters are totals *per processor*
    (the model is symmetric across processors).
    """

    flop_time: float = 0.0
    bw_time: float = 0.0
    lat_time: float = 0.0
    flops: float = 0.0
    words: float = 0.0
    messages: float = 0.0
    memory_words: float = 0.0

    @property
    def time(self) -> float:
        """Total modeled seconds."""
        return self.flop_time + self.bw_time + self.lat_time

    def __add__(self, other: "KernelCost") -> "KernelCost":
        return KernelCost(
            flop_time=self.flop_time + other.flop_time,
            bw_time=self.bw_time + other.bw_time,
            lat_time=self.lat_time + other.lat_time,
            flops=self.flops + other.flops,
            words=self.words + other.words,
            messages=self.messages + other.messages,
            memory_words=max(self.memory_words, other.memory_words),
        )


def _check_grid(
    shape: Sequence[int], grid: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    shape = check_shape_like(shape, "shape")
    grid = check_shape_like(grid, "grid")
    if len(grid) != len(shape):
        raise ValueError(f"grid {grid} and shape {shape} differ in order")
    return shape, grid


def _log2(p: int) -> float:
    return math.log2(p) if p > 1 else 0.0


def ttm_cost(
    shape: Sequence[int],
    mode: int,
    new_dim: int,
    grid: Sequence[int],
    machine: MachineSpec,
) -> KernelCost:
    """Cost of the parallel TTM ``Z = Y x_n V`` with ``V`` of size ``K x J_n``.

    Implements ``C_TTM`` and ``M_TTM`` of Sec. V-B: ``P_n`` local dgemms plus
    ``P_n`` reduces across the mode-``n`` processor column.
    """
    shape, grid = _check_grid(shape, grid)
    mode = check_axis(mode, len(shape))
    if new_dim <= 0:
        raise ValueError(f"new_dim must be positive, got {new_dim}")
    j = prod(shape)
    jn = shape[mode]
    jhat = j // jn
    p = prod(grid)
    pn = grid[mode]
    phat = p // pn

    flops = 2.0 * j * new_dim / p
    # Local dgemm per block row: (K/Pn) x (Jn/Pn) times (Jn/Pn) x (Jhat/Phat);
    # these dims drive the BLAS-efficiency surrogate.
    gemm_dims = (
        max(1.0, new_dim / pn),
        max(1.0, jhat / phat),
        max(1.0, jn / pn),
    )
    lat = machine.alpha * pn * _log2(pn)
    bw_words = (pn - 1) * jhat * new_dim / p
    memory = (
        j / p  # local input tensor
        + jn * new_dim / pn  # local factor-matrix block (redundant per column)
        + jhat * new_dim / p  # local result
        + jhat * new_dim / p  # temporary W
    )
    return KernelCost(
        flop_time=machine.flop_time(flops, gemm_dims),
        bw_time=machine.beta * bw_words,
        lat_time=lat,
        flops=flops,
        words=bw_words,
        messages=float(pn * max(1, round(_log2(pn)))) if pn > 1 else 0.0,
        memory_words=memory,
    )


def gram_cost(
    shape: Sequence[int],
    mode: int,
    grid: Sequence[int],
    machine: MachineSpec,
) -> KernelCost:
    """Cost of the parallel Gram ``S = Y_(n) Y_(n)^T`` (Sec. V-C).

    Local syrk + ring exchange of local tensors around the mode-``n``
    processor column + all-reduce across the mode-``n`` processor row.
    """
    shape, grid = _check_grid(shape, grid)
    mode = check_axis(mode, len(shape))
    j = prod(shape)
    jn = shape[mode]
    p = prod(grid)
    pn = grid[mode]
    phat = p // pn

    flops = 2.0 * jn * j / p
    # Local syrk/gemm: (Jn/Pn) x (Jhat/Phat) against a peer's transpose.
    gemm_dims = (
        max(1.0, jn / pn),
        max(1.0, jn / pn),
        max(1.0, (j / jn) / phat),
    )
    # Ring exchange: (Pn - 1) iterations, each a send and a receive of the
    # local tensor (J/P words).
    ring_lat = 2.0 * (pn - 1) * machine.alpha
    ring_bw = 2.0 * (pn - 1) * (j / p)
    # All-reduce of the local block column of S (J_n^2 / P_n words) over the
    # P_hat_n-processor row: 2 alpha log + 2 beta (Phat-1)/Phat * Jn^2/Pn.
    ar_lat = 2.0 * machine.alpha * _log2(phat)
    ar_bw = 2.0 * (phat - 1) * jn * jn / p
    memory = (
        j / p  # local tensor
        + j / p  # received W
        + jn * jn / pn  # V accumulator
        + jn * jn / pn  # local S block
    )
    words = ring_bw + ar_bw
    return KernelCost(
        flop_time=machine.flop_time(flops, gemm_dims),
        bw_time=machine.beta * words,
        lat_time=ring_lat + ar_lat,
        flops=flops,
        words=words,
        messages=float(2 * (pn - 1) + (2 if phat > 1 else 0)),
        memory_words=memory,
    )


def evecs_cost(
    n_rows: int,
    rank: int,
    mode_procs: int,
    machine: MachineSpec,
) -> KernelCost:
    """Cost of the parallel eigenvector kernel (Alg. 5, Sec. V-D).

    All-gather the ``I_n x I_n`` Gram matrix over the ``P_n``-processor
    fiber, then a redundant local eigendecomposition at ``(10/3) I_n^3``
    flops, then extract the local block row of ``U^(n)``.
    """
    if n_rows <= 0 or rank <= 0 or mode_procs <= 0:
        raise ValueError("n_rows, rank, mode_procs must be positive")
    in2 = float(n_rows) * n_rows
    lat = machine.alpha * _log2(mode_procs)
    bw_words = (mode_procs - 1) / mode_procs * in2
    # Integer (10/3) n^3, matching util.flops.eig_flops exactly so the
    # analytic model and the simulator's ledger agree flop-for-flop.
    flops = float((10 * n_rows**3) // 3)
    memory = (
        in2 / mode_procs  # local S block
        + in2  # gathered S
        + float(n_rows) * rank  # full U^(n) (temporary)
        + float(n_rows) * rank / mode_procs  # local block row
    )
    return KernelCost(
        flop_time=machine.gamma * flops,
        bw_time=machine.beta * bw_words,
        lat_time=lat,
        flops=flops,
        words=bw_words,
        messages=1.0 if mode_procs > 1 else 0.0,
        memory_words=memory,
    )

