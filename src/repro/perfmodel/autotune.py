"""Perf-model-driven execution-plan selection ("autotuning").

The one plan decision the runtime leaves open is the kernel precision:
float64, or float32 kernels with a float64 refinement under the error
budget (``mixed``).  Narrow words halve the bytes every ring, reduce and
all-gather moves, but they spend part of the error budget, so the right
setting depends on the problem, not on taste.

:func:`plan_sthosvd` turns the paper's alpha-beta-gamma cost model
(Secs. V-VI) into that decision: given the global shape, the target ranks
(or tolerance), the processor count and a :class:`MachineSpec`, it
consults :func:`~repro.perfmodel.algorithms.sthosvd_cost` and returns an
:class:`ExecutionPlan` — a concrete, replayable
:class:`~repro.config.RuntimeConfig` plus the predicted per-mode costs
and a human-readable record of the decision.  Consume it via
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


def _dtype_decision(
    cost: AlgorithmCost, tol: float | None, machine: MachineSpec
) -> tuple[str, str]:
    """Choose the compute dtype from the error budget and modeled traffic.

    The dtype changes the numbers, so it is chosen conservatively.  The
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
        compression floored at the grid is assumed for planning — the
        decision depends on relative, not exact, sizes.
    n_ranks, grid:
        Processor count or an explicit grid; exactly one is required.
        With ``n_ranks``, the grid is chosen by
        :func:`repro.distributed.grid.choose_grid`.
    machine:
        Machine constants to plan against (default: the ideal Edison
        core; pass a :func:`refine_machine` result for calibrated plans).
    base:
        Config to start from (default ``RuntimeConfig()``); the plan only
        changes ``compute_dtype``, so executor/transport settings are
        preserved.
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
    from repro.distributed.grid import choose_grid, tolerance_ranks

    if grid is None:
        assert n_ranks is not None
        grid = choose_grid(n_ranks, shape, ranks, machine)
    grid = check_shape_like(grid, "grid")
    if len(grid) != n_modes:
        raise ValueError(f"grid {grid} and shape {shape} differ in order")
    planned_ranks = tolerance_ranks(planned_ranks, shape, grid)
    order = (
        list(range(n_modes))
        if mode_order is None
        else [int(m) for m in mode_order]
    )
    if sorted(order) != list(range(n_modes)):
        raise ValueError(f"mode_order {mode_order} is not a permutation")

    cost = sthosvd_cost(shape, planned_ranks, grid, machine, order)
    base_cfg = base if base is not None else RuntimeConfig()
    dtype, dtype_why = _dtype_decision(cost, tol, machine)
    return ExecutionPlan(
        config=base_cfg.replace(compute_dtype=dtype),
        grid=tuple(grid),
        predicted=cost,
        decisions={"compute_dtype": dtype_why},
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
