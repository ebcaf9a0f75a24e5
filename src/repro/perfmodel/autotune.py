"""Perf-model-driven execution-plan selection ("autotuning").

The runtime exposes several knobs whose best setting depends on the
problem, not on taste: communication/computation overlap pays only when
there is enough communication to hide *and* its extra non-blocking
messages cost less than what they hide; the TSQR reduction tree trades
latency for bandwidth with the processor-column height.  Historically
those knobs were global defaults, and a default that wins at scale can
lose outright on small problems — the committed benchmark suite carries
exactly such a case, where pipelined ``dist_sthosvd`` *pays* for overlap
on a tiny tensor.

:func:`plan_sthosvd` turns the paper's alpha-beta-gamma cost model
(Secs. V-VI) into decisions: given the global shape, the target ranks
(or tolerance), the processor count and a :class:`MachineSpec`, it
consults :func:`~repro.perfmodel.algorithms.sthosvd_cost` per candidate
and returns an :class:`ExecutionPlan` — a concrete, replayable
:class:`~repro.config.RuntimeConfig` plus the predicted per-mode costs
and a human-readable record of each decision.  Consume it via
``dist_sthosvd(..., plan="auto")``, ``run_spmd(..., config=plan.config)``
or ``repro-tucker plan``.

:func:`refine_machine` closes the loop: fold a measured run time back
into the machine description so later plans are made against calibrated
constants instead of nominal peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.config import RuntimeConfig
from repro.perfmodel.algorithms import AlgorithmCost, sthosvd_cost
from repro.perfmodel.machine import EDISON, MachineSpec
from repro.util.validation import check_shape_like

#: A planned tolerance at or above this keeps the mixed pipeline's
#: precision share comfortably above the float32 noise floor (see
#: :mod:`repro.core.precision`), so float32 kernels meet the budget
#: without usually paying the float64 refinement sweep.
MIXED_TOL_FLOOR = 1.0e-3

#: Modeled communication volume (8-byte words) below which the halved
#: wire width cannot matter: latency and Python overheads dominate, and
#: test-sized tensors planned with ``plan="auto"`` must keep the
#: bit-identical float64 path.
MIXED_WORDS_FLOOR = 1 << 20


@dataclass(frozen=True)
class ExecutionPlan:
    """A selected runtime configuration plus the evidence behind it.

    Attributes
    ----------
    config:
        The concrete :class:`~repro.config.RuntimeConfig` to run with —
        pass it to ``run_spmd(config=...)`` or replay it via its JSON.
    grid:
        The processor grid the plan was evaluated on (and recommends).
    predicted:
        Modeled :class:`~repro.perfmodel.algorithms.AlgorithmCost` of
        ST-HOSVD under this plan's grid on this machine.
    decisions:
        Per-knob explanation strings, keyed by config field name.
    """

    config: RuntimeConfig
    grid: tuple[int, ...]
    predicted: AlgorithmCost
    decisions: dict[str, str]

    def describe(self) -> str:
        """Multi-line human-readable rendering for CLI / logs."""
        lines = [f"grid: {'x'.join(map(str, self.grid))}"]
        for name, reason in self.decisions.items():
            lines.append(f"{name} = {getattr(self.config, name)}: {reason}")
        lines.append(f"predicted time: {self.predicted.time:.3e} s")
        return "\n".join(lines)


def _overlap_decision(
    cost: AlgorithmCost, machine: MachineSpec
) -> tuple[bool, str]:
    """Enable pipelining iff the hideable time exceeds its latency cost.

    The overlapped schedules hide communication behind the *next* block's
    dgemm (or vice versa), so per step at most ``min(flop, comm)`` can be
    hidden; in exchange every message is posted non-blocking, which the
    ledger (and a real NIC) charges roughly one extra latency each for
    the split post/wait.  Gram and TTM are the pipelined kernels; Evecs
    has a single all-gather and never overlaps.
    """
    saving = 0.0
    messages = 0.0
    for kernel, _mode, step in cost.steps:
        if kernel not in ("gram", "ttm"):
            continue
        saving += min(step.flop_time, step.bw_time + step.lat_time)
        messages += step.messages
    overhead = machine.alpha * messages
    enabled = saving > overhead
    reason = (
        f"hideable {saving:.2e} s vs non-blocking overhead "
        f"{overhead:.2e} s ({int(messages)} msgs at alpha="
        f"{machine.alpha:.1e})"
    )
    return enabled, reason


def _tree_decision(grid: Sequence[int]) -> tuple[str, str]:
    """Pick the TSQR reduction tree from the tallest processor column.

    The binary tree reduces to a root and broadcasts the R factor back
    (2 log P rounds of half-idle ranks); the butterfly keeps every rank
    busy and leaves the result everywhere in log P rounds.  With any
    real column height the butterfly is never worse here, so it wins as
    soon as a mode column actually spans processors.
    """
    tallest = max(grid)
    if tallest > 1:
        return "butterfly", (
            f"mode columns span up to {tallest} ranks; butterfly halves "
            f"the reduction rounds vs binary+broadcast"
        )
    return "binary", "grid has no multi-rank mode column; tree is moot"


def _dtype_decision(
    cost: AlgorithmCost, tol: float | None, machine: MachineSpec
) -> tuple[str, str]:
    """Choose the compute dtype from the error budget and modeled traffic.

    Every *scheduling* knob (overlap, tree) is pure tuning — bit-identical
    results whatever the plan picks.  The dtype knob is
    not: it changes the numbers, so it is chosen conservatively.  The
    plan stays ``float64`` unless a tolerance was planned for and is
    loose enough (>= ``MIXED_TOL_FLOOR``) that the float32 noise floor
    fits inside the error split's precision share, AND the modeled
    communication volume is large enough (>= ``MIXED_WORDS_FLOOR``
    words) for half-width payloads to buy real bandwidth.  Fixed-rank
    plans have no error budget to spend and always stay ``float64``.
    """
    words = cost.words
    if tol is None:
        return "float64", (
            "fixed-rank plan has no error budget to spend on narrow words"
        )
    if tol < MIXED_TOL_FLOOR:
        return "float64", (
            f"tol {tol:.1e} leaves no room above the float32 noise floor "
            f"(mixed needs >= {MIXED_TOL_FLOOR:.0e})"
        )
    if words < MIXED_WORDS_FLOOR:
        return "float64", (
            f"modeled traffic {words:.2e} words is below the "
            f"{float(MIXED_WORDS_FLOOR):.1e}-word floor where half-width "
            f"payloads pay"
        )
    bw_saving = 0.5 * sum(
        step.bw_time for _kernel, _mode, step in cost.steps
    )
    return "mixed", (
        f"tol {tol:.1e} funds float32 kernels over {words:.2e} words; "
        f"half-width payloads save ~{bw_saving:.2e} s of bandwidth "
        f"(beta32 = {machine.beta_for_itemsize(4):.1e} s/elem), float64 "
        f"refinement guards the budget"
    )


def plan_sthosvd(
    shape: Sequence[int],
    ranks: Sequence[int] | None = None,
    tol: float | None = None,
    n_ranks: int | None = None,
    grid: Sequence[int] | None = None,
    machine: MachineSpec = EDISON,
    base: RuntimeConfig | None = None,
    mode_order: Sequence[int] | None = None,
) -> ExecutionPlan:
    """Select a :class:`RuntimeConfig` for parallel ST-HOSVD from the model.

    Parameters
    ----------
    shape:
        Global tensor dimensions.
    ranks:
        Target Tucker ranks.  With ``tol=`` (or neither), a 10x-per-mode
        compression is assumed for planning — the decisions depend on
        relative, not exact, sizes.
    n_ranks, grid:
        Processor count or an explicit grid; exactly one is required.
        With ``n_ranks``, the grid is chosen by
        :func:`repro.distributed.grid.choose_grid`.
    machine:
        Machine constants to plan against (default: the ideal Edison
        core; pass a :func:`refine_machine` result for calibrated plans).
    base:
        Config to start from (default ``RuntimeConfig()``); the plan only
        changes the knobs it actually decides (overlap, tsqr_tree,
        compute_dtype), so executor/transport settings are preserved.
    mode_order:
        Mode processing order (default increasing).

    The selection is deterministic — a pure function of its arguments —
    so every rank of a collective call computes the identical plan.
    """
    shape = check_shape_like(shape, "shape")
    n_modes = len(shape)
    if tol is not None and ranks is not None:
        raise ValueError("specify at most one of tol= or ranks= for planning")
    if ranks is None:
        # Planning surrogate, same as choose_grid's: a 10x compression
        # per mode.  Decisions are driven by ratios, not exact ranks.
        planned_ranks = tuple(max(1, s // 10) for s in shape)
    else:
        planned_ranks = check_shape_like(ranks, "ranks")
        if len(planned_ranks) != n_modes:
            raise ValueError(
                f"need {n_modes} ranks, got {len(planned_ranks)}"
            )
    if (n_ranks is None) == (grid is None):
        raise ValueError("specify exactly one of n_ranks= or grid=")
    if grid is None:
        from repro.distributed.grid import choose_grid

        assert n_ranks is not None
        grid = choose_grid(n_ranks, shape, planned_ranks, machine)
    grid = check_shape_like(grid, "grid")
    if len(grid) != n_modes:
        raise ValueError(f"grid {grid} and shape {shape} differ in order")
    planned_ranks = tuple(
        min(s, max(r, p)) for r, s, p in zip(planned_ranks, shape, grid)
    )
    order = (
        list(range(n_modes))
        if mode_order is None
        else [int(m) for m in mode_order]
    )
    if sorted(order) != list(range(n_modes)):
        raise ValueError(f"mode_order {mode_order} is not a permutation")

    cost = sthosvd_cost(shape, planned_ranks, grid, machine, order)
    overlap, overlap_why = _overlap_decision(cost, machine)
    tree, tree_why = _tree_decision(grid)
    base_cfg = base if base is not None else RuntimeConfig()
    dtype, dtype_why = _dtype_decision(cost, tol, machine)
    config = base_cfg.replace(
        overlap=overlap,
        tsqr_tree=tree,
        compute_dtype=dtype,
    )
    return ExecutionPlan(
        config=config,
        grid=tuple(grid),
        predicted=cost,
        decisions={
            "overlap": overlap_why,
            "tsqr_tree": tree_why,
            "compute_dtype": dtype_why,
        },
    )


def refine_machine(
    machine: MachineSpec,
    modeled_seconds: float,
    measured_seconds: float,
) -> MachineSpec:
    """Fold a measured run back into the machine description.

    Scales alpha, beta and gamma by the single factor
    ``measured / modeled`` — the coarsest possible calibration, but it
    preserves every *ratio* the planner's comparisons depend on while
    making absolute predictions match observation.  Feed it the modeled
    time of a plan (``plan.predicted.time``) and the measured wall time
    of the same run (e.g. the max rank total from the cost ledger).
    """
    if modeled_seconds <= 0:
        raise ValueError(
            f"modeled_seconds must be positive, got {modeled_seconds}"
        )
    if measured_seconds <= 0:
        raise ValueError(
            f"measured_seconds must be positive, got {measured_seconds}"
        )
    factor = measured_seconds / modeled_seconds
    return replace(
        machine,
        alpha=machine.alpha * factor,
        beta=machine.beta * factor,
        gamma=machine.gamma * factor,
        name=f"{machine.name}(refined x{factor:.3g})",
    )


__all__ = [
    "ExecutionPlan",
    "plan_sthosvd",
    "refine_machine",
    "MIXED_TOL_FLOOR",
    "MIXED_WORDS_FLOOR",
]
