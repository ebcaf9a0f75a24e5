"""SPMD correctness tooling: the runtime sanitizer.

At ``REPRO_SANITIZE=1`` (or ``run_spmd(..., sanitize=1)``) every
collective records a call-site signature and cross-rank verifies it by
piggybacking a digest on every message of the collective's exchange
round, turning mismatched/reordered collectives into precise diagnostics
instead of deadlocks; a deadlock that still happens carries the rank's
last collective and its call site; non-blocking requests are tracked so
leaked handles and double waits fail the run.  Level 0 (default)
compiles every check out of the fast path.  See
:mod:`repro.analysis.sanitizer`.
"""

from repro.analysis.sanitizer import (
    SANITIZE_ENV_VAR,
    CollectiveCall,
    RequestRecord,
    Sanitizer,
    call_site,
)

__all__ = [
    "SANITIZE_ENV_VAR",
    "CollectiveCall",
    "RequestRecord",
    "Sanitizer",
    "call_site",
]
