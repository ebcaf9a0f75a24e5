"""Resource governance for the SPMD runtime.

Graceful per-allocation degradation of the shared-memory fast path to
the pickle route (a full ``/dev/shm``, or an injected ``enospc`` at the
``arena`` fault site), cooperative deadline propagation
(``REPRO_DEADLINE`` / ``run_spmd(deadline=)``), and the per-run
:class:`ResourceReport` surfaced on ``SpmdResult.resources``.

The :func:`~repro.resources.governor.governor` of each process gates
(fires the ``arena`` fault site) and accounts every segment the
transport creates; the per-rank summaries fold into the report.
"""

from repro.resources.governor import (
    EXHAUSTED_ERRNOS,
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
    "DegradationEvent",
    "EXHAUSTED_ERRNOS",
    "ResourceGovernor",
    "ResourceReport",
    "active_deadline",
    "check_deadline",
    "governor",
    "is_exhaustion",
    "remaining_deadline",
    "set_active_deadline",
]
