"""Whole-algorithm cost models for ST-HOSVD and HOOI (paper Sec. VI).

The models *simulate the shape evolution* of the algorithms: ST-HOSVD
processes modes in a given order, shrinking the working tensor from ``I_k``
to ``R_k`` as it goes (Sec. VI-A); one HOOI outer iteration performs, for
each mode n, the multi-TTM in all modes but n followed by Gram and Evecs,
plus the final core TTM (Sec. VI-B).  Costs are accumulated per kernel so
benchmarks can regenerate the paper's stacked-bar runtime breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.perfmodel.kernels import (
    KernelCost,
    evecs_cost,
    gram_cost,
    ttm_cost,
)
from repro.perfmodel.machine import MachineSpec
from repro.util.validation import check_shape_like, prod


@dataclass
class AlgorithmCost:
    """Aggregated modeled cost of an algorithm, broken down by kernel.

    ``by_kernel`` maps ``"ttm" | "gram" | "evecs"`` to summed
    :class:`KernelCost`; ``steps`` records ``(kernel, mode, KernelCost)`` in
    execution order, which is what the per-mode stacked bars of Fig. 8 plot.
    """

    by_kernel: dict[str, KernelCost] = field(default_factory=dict)
    steps: list[tuple[str, int, KernelCost]] = field(default_factory=list)

    def add(self, kernel: str, mode: int, cost: KernelCost) -> None:
        self.steps.append((kernel, mode, cost))
        self.by_kernel[kernel] = self.by_kernel.get(kernel, KernelCost()) + cost

    @property
    def time(self) -> float:
        return sum(c.time for c in self.by_kernel.values())

    @property
    def flops(self) -> float:
        return sum(c.flops for c in self.by_kernel.values())

    @property
    def words(self) -> float:
        return sum(c.words for c in self.by_kernel.values())

    def kernel_time(self, kernel: str) -> float:
        return self.by_kernel.get(kernel, KernelCost()).time

    def __add__(self, other: "AlgorithmCost") -> "AlgorithmCost":
        merged = AlgorithmCost()
        for kernel, mode, cost in self.steps + other.steps:
            merged.add(kernel, mode, cost)
        return merged


def _validate(
    shape: Sequence[int], ranks: Sequence[int], grid: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    shape = check_shape_like(shape, "shape")
    ranks = check_shape_like(ranks, "ranks")
    grid = check_shape_like(grid, "grid")
    if not len(shape) == len(ranks) == len(grid):
        raise ValueError(
            f"shape {shape}, ranks {ranks}, grid {grid} differ in order"
        )
    for r, s in zip(ranks, shape):
        if r > s:
            raise ValueError(f"rank {r} exceeds dimension {s}")
    return shape, ranks, grid


def sthosvd_cost(
    shape: Sequence[int],
    ranks: Sequence[int],
    grid: Sequence[int],
    machine: MachineSpec,
    mode_order: Sequence[int] | None = None,
) -> AlgorithmCost:
    """Modeled cost of parallel ST-HOSVD (Alg. 1 with Sec. V kernels).

    For each mode ``n`` in ``mode_order`` the algorithm runs Gram, Evecs,
    and a TTM that truncates mode ``n`` from ``I_n`` to ``R_n``; the working
    tensor shrinks accordingly for subsequent modes.
    """
    shape, ranks, grid = _validate(shape, ranks, grid)
    n_modes = len(shape)
    order = list(range(n_modes)) if mode_order is None else list(mode_order)
    if sorted(order) != list(range(n_modes)):
        raise ValueError(f"mode_order {mode_order} is not a permutation")
    cost = AlgorithmCost()
    current = list(shape)
    for n in order:
        cost.add("gram", n, gram_cost(current, n, grid, machine))
        cost.add("evecs", n, evecs_cost(shape[n], ranks[n], grid[n], machine))
        cost.add("ttm", n, ttm_cost(current, n, ranks[n], grid, machine))
        current[n] = ranks[n]
    return cost


def hooi_iteration_cost(
    shape: Sequence[int],
    ranks: Sequence[int],
    grid: Sequence[int],
    machine: MachineSpec,
    ttm_order: str = "increasing",
) -> AlgorithmCost:
    """Modeled cost of one HOOI outer iteration (Alg. 2 with Sec. V kernels).

    Each inner iteration n computes ``Y = X x {U^(m)T}, m != n`` as a chain
    of N-1 TTMs (the working tensor shrinks as factors are applied), then
    Gram and Evecs in mode n.  The final core TTM in mode N reuses the last
    inner iteration's Y (Alg. 2 line 9).

    ``ttm_order`` chooses how each multi-TTM chain is ordered:
    ``"increasing"`` applies modes in increasing index (the paper's default,
    untuned); ``"decreasing"`` the reverse.
    """
    shape, ranks, grid = _validate(shape, ranks, grid)
    n_modes = len(shape)
    if ttm_order not in ("increasing", "decreasing"):
        raise ValueError(f"unknown ttm_order {ttm_order!r}")
    cost = AlgorithmCost()
    for n in range(n_modes):
        chain = [m for m in range(n_modes) if m != n]
        if ttm_order == "decreasing":
            chain = chain[::-1]
        current = list(shape)
        for m in chain:
            cost.add("ttm", m, ttm_cost(current, m, ranks[m], grid, machine))
            current[m] = ranks[m]
        cost.add("gram", n, gram_cost(current, n, grid, machine))
        cost.add("evecs", n, evecs_cost(shape[n], ranks[n], grid[n], machine))
    # Final TTM producing the core from the last inner iteration's Y, whose
    # shape is R in every mode but N-1 where it is I_{N-1}.
    last = list(ranks)
    last[n_modes - 1] = shape[n_modes - 1]
    cost.add(
        "ttm",
        n_modes - 1,
        ttm_cost(last, n_modes - 1, ranks[n_modes - 1], grid, machine),
    )
    return cost


def sthosvd_memory_bound(
    shape: Sequence[int], ranks: Sequence[int], grid: Sequence[int]
) -> float:
    """Per-processor memory upper bound for ST-HOSVD/HOOI, eq. (2) of Sec. VI.

    ``2 I / P + sum_n R_n I_n / P_n + max_n I_n^2 + max_n R_n I_n`` words.
    """
    shape, ranks, grid = _validate(shape, ranks, grid)
    i_total = prod(shape)
    p = prod(grid)
    factors = sum(r * s / pn for r, s, pn in zip(ranks, shape, grid))
    return (
        2.0 * i_total / p
        + factors
        + max(float(s) * s for s in shape)
        + max(float(r) * s for r, s in zip(ranks, shape))
    )
