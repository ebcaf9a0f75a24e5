"""SPMD executor: run one function on N simulated MPI ranks.

The actual execution strategy lives in a pluggable backend
(:mod:`repro.mpi.backends`): ``"thread"`` runs ranks as threads sharing an
in-process transport, ``"process"`` runs one OS process per rank —
dispatched to a persistent warm rank pool when the rank function is
picklable, to a one-shot pool forked for the run otherwise — and moves
ndarray payloads through pooled POSIX shared-memory segments, so rank
code runs genuinely in parallel on multi-core hardware and short
benchmark runs are not dominated by launch overhead.

Whatever the backend, if any rank raises, the transport is poisoned so
sibling ranks blocked on receives fail fast, and the whole run raises
:class:`~repro.mpi.errors.SpmdError` carrying every rank's exception.  A
process rank that dies without reporting surfaces as
:class:`~repro.mpi.errors.RankDeadError`, naming the rank, its signal and
its last collective.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro import resources
from repro.config import RuntimeConfig, resolve_config, set_active_config
from repro.mpi.backends import (
    ExecutorBackend,
    SpmdResult,
    available_backends,
    resolve_backend,
)
from repro.perfmodel.machine import EDISON, MachineSpec

__all__ = ["SpmdResult", "run_spmd", "available_backends"]


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineSpec = EDISON,
    timeout: float | None = None,
    rank_args: Sequence[tuple] | None = None,
    backend: str | ExecutorBackend | None = None,
    sanitize: int | None = None,
    config: RuntimeConfig | None = None,
    deadline: float | None = None,
) -> SpmdResult:
    """Execute ``fn(comm, *args)`` on ``n_ranks`` simulated MPI ranks.

    Parameters
    ----------
    n_ranks:
        Number of ranks to launch.
    fn:
        The SPMD program.  Receives a world :class:`Communicator` as its
        first argument, then ``args`` (identical on every rank) and, if
        ``rank_args`` is given, that rank's extra tuple appended.  On the
        process backend's warm pool a module-level function runs as the
        workers resolve it by name; one redefined since they forked is
        detected and run on fresh workers, but a module global rebound
        without redefining the function stays invisible to them (they
        read their forked copy): pass such values as arguments.
    machine:
        Machine constants used by the cost ledger (default: Edison core).
    timeout:
        Deadlock-detection timeout for blocking receives, in seconds.
        ``None`` (default) consults ``REPRO_SPMD_TIMEOUT``, falling back
        to 120 s.
    rank_args:
        Optional per-rank argument tuples, e.g. per-rank data blocks.
    backend:
        Executor backend: a name (``"thread"``, ``"process"``), a
        :class:`~repro.mpi.backends.ExecutorBackend` instance, or ``None``
        to consult the ``REPRO_SPMD_BACKEND`` environment variable
        (default ``"thread"``).  The process backend requires per-rank
        return values to be picklable.
    sanitize:
        SPMD sanitizer level (:mod:`repro.analysis.sanitizer`): ``0``
        off, ``1`` collective-protocol + request-lifetime checks.
        ``None`` (default) consults the ``REPRO_SANITIZE`` environment
        variable.  The level
        is resolved here, in the launching process, and rides the run
        dispatch — warm pool workers need no environment change.
    config:
        A complete :class:`repro.config.RuntimeConfig` describing every
        runtime knob (backend, timeout, dtype, ...).  Explicit
        keywords above win over it; unspecified knobs fall back to the
        environment, then to the defaults.  The resolved config is
        installed for the duration of the run (and shipped to pooled
        workers), so mid-library helpers see exactly one consistent
        configuration per run.
    deadline:
        Cooperative wall-clock deadline for the whole run, in seconds
        (``None`` consults ``REPRO_DEADLINE``; ``0`` = no deadline).
        The budget starts counting here, before any rank is launched:
        ranks check it at collective entries and blocking receives, and
        every rank raises
        :class:`~repro.mpi.errors.DeadlineExceededError` — naming the
        operation it was in — within seconds of expiry, with
        ``/dev/shm`` left clean.

    Returns
    -------
    SpmdResult
        Per-rank return values (rank order) and the run's cost ledger.

    Raises
    ------
    SpmdError
        If any rank raised; carries all per-rank exceptions.
    """
    if n_ranks <= 0:
        raise ValueError(f"n_ranks must be positive, got {n_ranks}")
    if rank_args is not None and len(rank_args) != n_ranks:
        raise ValueError(
            f"rank_args has {len(rank_args)} entries for {n_ranks} ranks"
        )
    # Resolve every knob ONCE, here at the boundary: explicit keyword >
    # explicit config > environment > default.  Everything downstream
    # receives the resolved config, never the environment.
    cfg = resolve_config(
        config,
        backend=backend if isinstance(backend, str) else None,
        sanitize=sanitize,
        timeout=timeout,
        deadline=deadline,
    )
    if isinstance(backend, ExecutorBackend):
        executor = backend
    else:
        executor = resolve_backend(cfg.backend)
    # The deadline is an *absolute* timestamp, so every rank — a process
    # rank too — counts down the same budget.
    deadline_info = (
        (time.monotonic() + cfg.deadline, cfg.deadline)
        if cfg.deadline > 0
        else None
    )
    previous = set_active_config(cfg)
    previous_deadline = resources.set_active_deadline(deadline_info)
    try:
        return executor.run(
            n_ranks,
            fn,
            args,
            machine,
            cfg.timeout,
            rank_args,
            sanitize=cfg.sanitize,
            config=cfg,
        )
    finally:
        resources.set_active_deadline(previous_deadline)
        set_active_config(previous)
