"""Resource governance for the SPMD runtime.

Budgets and admission control (``REPRO_SHM_BUDGET`` /
``REPRO_MAX_WORLDS``), graceful per-allocation degradation of the
shared-memory fast path to the pickle route, cooperative deadline
propagation (``REPRO_DEADLINE`` / ``run_spmd(deadline=)``), and the
per-run :class:`ResourceReport` surfaced on ``SpmdResult.resources``.

The package sits between the config layer and the transport: the
:func:`~repro.resources.governor.governor` of each process gates and
accounts every segment the transport creates, the world-wide ledger
lives on the shared :class:`~repro.resources.board.ResourceBoard`, and
the :func:`~repro.resources.admission.admission_controller` enforces the
budget across worlds at the ``run_spmd`` boundary.
"""

from repro.resources.admission import (
    ADMISSION_WAIT,
    AdmissionController,
    admission_controller,
    estimate_world_shm,
)
from repro.resources.board import ResourceBoard
from repro.resources.governor import (
    EXHAUSTED_ERRNOS,
    BudgetExceededError,
    ResourceGovernor,
    active_deadline,
    check_deadline,
    governor,
    is_exhaustion,
    remaining_deadline,
    set_active_deadline,
)
from repro.resources.report import DegradationEvent, ResourceReport

__all__ = [
    "ADMISSION_WAIT",
    "AdmissionController",
    "BudgetExceededError",
    "DegradationEvent",
    "EXHAUSTED_ERRNOS",
    "ResourceBoard",
    "ResourceGovernor",
    "ResourceReport",
    "active_deadline",
    "admission_controller",
    "check_deadline",
    "estimate_world_shm",
    "governor",
    "is_exhaustion",
    "remaining_deadline",
    "set_active_deadline",
]
