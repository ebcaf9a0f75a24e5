"""Analytic performance model (the paper's Secs. V-VI).

This package implements the alpha-beta-gamma cost model used throughout the
paper: machine descriptions (:mod:`repro.perfmodel.machine`), the collective
cost formulas of Table I (:mod:`repro.perfmodel.collectives`), per-kernel
costs of the parallel TTM / Gram / eigenvector kernels
(:mod:`repro.perfmodel.kernels`), whole-algorithm costs for ST-HOSVD and
HOOI (:mod:`repro.perfmodel.algorithms`), and the scaling-experiment
predictors that regenerate Figs. 8-9 (:mod:`repro.perfmodel.scaling`).

The same formulas drive the cost ledger inside the simulated MPI runtime, so
the analytic model is cross-checked against measured byte/flop counts in the
test suite.
"""

from repro.perfmodel.machine import MachineSpec, EDISON, EDISON_CALIBRATED, UNIT
from repro.perfmodel.collectives import (
    send_recv_cost,
    allgather_cost,
    reduce_cost,
    allreduce_cost,
    reduce_scatter_cost,
    bcast_cost,
)
from repro.perfmodel.kernels import (
    KernelCost,
    ttm_cost,
    gram_cost,
    evecs_cost,
    ttm_memory,
    gram_memory,
    evecs_memory,
)
from repro.perfmodel.algorithms import (
    AlgorithmCost,
    sthosvd_cost,
    hooi_cost,
    hooi_iteration_cost,
    sthosvd_memory_bound,
)
from repro.perfmodel.scaling import (
    strong_scaling_curve,
    weak_scaling_curve,
    grid_sweep,
    mode_order_sweep,
)

__all__ = [
    "MachineSpec",
    "EDISON",
    "EDISON_CALIBRATED",
    "UNIT",
    "send_recv_cost",
    "allgather_cost",
    "reduce_cost",
    "allreduce_cost",
    "reduce_scatter_cost",
    "bcast_cost",
    "KernelCost",
    "ttm_cost",
    "gram_cost",
    "evecs_cost",
    "ttm_memory",
    "gram_memory",
    "evecs_memory",
    "AlgorithmCost",
    "sthosvd_cost",
    "hooi_cost",
    "hooi_iteration_cost",
    "sthosvd_memory_bound",
    "strong_scaling_curve",
    "weak_scaling_curve",
    "grid_sweep",
    "mode_order_sweep",
]
