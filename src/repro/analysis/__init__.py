"""SPMD correctness tooling: runtime sanitizer and static lint pass.

Two halves, sharing the SPMD-protocol vocabulary of :mod:`repro.mpi`:

* :mod:`repro.analysis.sanitizer` — the runtime half.  At
  ``REPRO_SANITIZE=1`` (or ``run_spmd(..., sanitize=1)``) every
  collective records a call-site signature and cross-rank verifies it by
  piggybacking a digest on every message of the collective's exchange
  round, turning mismatched/reordered collectives into precise
  diagnostics instead of deadlocks; non-blocking requests are tracked so
  leaked handles and double waits fail the run.  Level 0 (default)
  compiles every check out of the fast path.
* :mod:`repro.analysis.lint` — the static half: ``repro-lint`` (also
  ``python -m repro.analysis.lint``), an AST checker with SPMD-aware
  rules (collectives under rank-dependent branches, unwaited deferred
  requests, blocking collectives inside pipeline regions, bare
  ``except`` around transport calls, mutable default arguments), per-rule
  suppression comments, and a JSON output mode for CI.
"""

from repro.analysis.sanitizer import (
    SANITIZE_ENV_VAR,
    CollectiveCall,
    RequestRecord,
    Sanitizer,
    call_site,
    sanitize_level,
)

__all__ = [
    "SANITIZE_ENV_VAR",
    "CollectiveCall",
    "RequestRecord",
    "Sanitizer",
    "call_site",
    "sanitize_level",
]
