"""Per-process resource governor: budget gate, accounting, deadline.

Every process that touches ``/dev/shm`` — the parent (staging arena) and
each rank — owns exactly one :class:`ResourceGovernor` for its lifetime
(:func:`governor`).  The transport's allocation/unlink choke points call
into it:

* :meth:`ResourceGovernor.gate` runs *before* a segment is created: it
  fires the resource fault sites (``enospc``/``stall`` clauses with
  ``site=arena``) and raises
  :class:`BudgetExceededError` — an ``OSError`` with ``errno.ENOSPC`` —
  when the world's live bytes plus the request would exceed the budget,
  so a budget denial flows through exactly the same errno-discriminating
  handlers as a real tmpfs ``ENOSPC``.
* :meth:`charge` / :meth:`release` keep the live-byte ledger, mirrored
  onto the world's shared :class:`~repro.resources.board.ResourceBoard`
  while one is configured (so the budget is enforced world-wide, not
  per process).
* :meth:`note_degradation` records each allocation that fell back to
  the pickle path; the per-run summaries become the
  :class:`~repro.resources.report.ResourceReport`.

The run-scoped state (board attachment, budget, fault injector, event
list) is installed with :meth:`configure` at rank entry and removed with
:meth:`deconfigure` at exit; the byte counters survive across runs
because arena free lists do too.

This module also owns the cooperative deadline:
:func:`set_active_deadline` installs an absolute ``time.monotonic``
timestamp (shipped from the parent, so every retry attempt shares one
budget) and :func:`check_deadline` raises
:class:`~repro.mpi.errors.DeadlineExceededError` naming the operation
and elapsed time.  Checks live at collective entries, blocking receives
and checkpoint steps — all ranks converge on the failure within seconds.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.resources.board import ResourceBoard


class BudgetExceededError(OSError):
    """A shm allocation was denied by the resource budget.

    Subclasses ``OSError`` with ``errno.ENOSPC`` so budget denials and
    real tmpfs exhaustion take the same degradation path; carries the
    machine-readable fields for reports and tests.
    """

    def __init__(self, purpose: str, nbytes: int, budget: int, usage: int):
        super().__init__(
            errno.ENOSPC,
            f"shm budget denied {purpose} allocation of {nbytes} B "
            f"(live {usage} B of {budget} B budget)",
        )
        self.purpose = purpose
        self.nbytes = nbytes
        self.budget = budget
        self.usage = usage

    def __reduce__(self):
        return (
            type(self),
            (self.purpose, self.nbytes, self.budget, self.usage),
        )


#: errno values that mean "resources exhausted" — the only failures the
#: degradation ladder absorbs; anything else is a real bug and re-raises.
EXHAUSTED_ERRNOS = frozenset({errno.ENOSPC, errno.ENOMEM})


def is_exhaustion(exc: BaseException) -> bool:
    """Whether an exception is a resource-exhaustion ``OSError``."""
    return (
        isinstance(exc, OSError) and exc.errno in EXHAUSTED_ERRNOS
    )


class ResourceGovernor:
    """Budget gate + live-byte ledger for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Lifetime counters (survive across runs, like the arena).
        self.live_bytes = 0
        self.peak_bytes = 0
        # Run-scoped state.
        self.budget = 0
        self._board: "ResourceBoard | None" = None
        self._slot = 0
        self._faults: "FaultInjector | None" = None
        self._events: list[tuple[str, str, int, str]] = []
        self._run_charged = 0
        self._run_released = 0
        self._run_peak_base = 0

    # -- run lifecycle -------------------------------------------------

    def configure(
        self,
        budget: int = 0,
        board: "ResourceBoard | None" = None,
        slot: int = 0,
        faults: "FaultInjector | None" = None,
    ) -> None:
        """Install the run-scoped budget/board/faults and reset the
        per-run summary counters."""
        with self._lock:
            self.budget = int(budget)
            self._board = board
            self._slot = slot
            self._faults = faults
            self._events = []
            self._run_charged = 0
            self._run_released = 0
            self._run_peak_base = self.live_bytes

    def deconfigure(self) -> dict[str, Any]:
        """Remove run-scoped state; returns the run's picklable summary."""
        summary = self.summary()
        with self._lock:
            self.budget = 0
            self._board = None
            self._faults = None
        return summary

    # -- allocation path ----------------------------------------------

    def usage(self) -> int:
        """Live shm bytes counted against the budget: world-wide when a
        board is configured, else this process alone."""
        board = self._board
        if board is not None:
            return board.total()
        return max(0, self.live_bytes)

    def gate(self, purpose: str, nbytes: int) -> None:
        """Pre-allocation check: fire resource fault sites, then deny
        the request if it would blow the budget."""
        faults = self._faults
        if faults is not None:
            faults.fire(purpose)
        budget = self.budget
        if budget and self.usage() + nbytes > budget:
            raise BudgetExceededError(purpose, nbytes, budget, self.usage())

    def charge(self, nbytes: int) -> None:
        with self._lock:
            self.live_bytes += nbytes
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)
            self._run_charged += nbytes
            board = self._board
        if board is not None:
            board.add(self._slot, nbytes)

    def release(self, nbytes: int) -> None:
        with self._lock:
            self.live_bytes -= nbytes
            self._run_released += nbytes
            board = self._board
        if board is not None:
            board.add(self._slot, -nbytes)

    def note_degradation(
        self, site: str, kind: str, nbytes: int, detail: str = ""
    ) -> None:
        """Record one allocation that fell back to the pickle path."""
        with self._lock:
            self._events.append((site, kind, int(nbytes), detail))
            board = self._board
        if board is not None:
            board.note_degradation(self._slot)

    def summary(self) -> dict[str, Any]:
        """Picklable per-run summary for the report channel."""
        with self._lock:
            return {
                "events": list(self._events),
                "live": max(0, self.live_bytes),
                "peak": max(0, self.peak_bytes - self._run_peak_base),
                "charged": self._run_charged,
                "released": self._run_released,
            }


#: The one governor of this process.  Reset on fork so a child starts
#: from zero (its inherited arena references are re-zeroed the same way
#: by ``process_arena``'s at-fork hook).
_GOVERNOR = ResourceGovernor()


def governor() -> ResourceGovernor:
    """This process's resource governor (always present)."""
    return _GOVERNOR


def _reset_after_fork() -> None:  # pragma: no cover - exercised via forks
    global _GOVERNOR, _DEADLINE
    _GOVERNOR = ResourceGovernor()
    _DEADLINE = None


os.register_at_fork(after_in_child=_reset_after_fork)


# -- cooperative deadline ----------------------------------------------

#: ``(absolute monotonic timestamp, total budget seconds)`` or None.
_DEADLINE: tuple[float, float] | None = None


def set_active_deadline(
    deadline: tuple[float, float] | None,
) -> tuple[float, float] | None:
    """Install the run deadline; returns the previous one so callers can
    restore it (always pair with a ``finally``)."""
    global _DEADLINE
    previous = _DEADLINE
    _DEADLINE = deadline
    return previous


def active_deadline() -> tuple[float, float] | None:
    """The installed ``(timestamp, budget)`` deadline, if any."""
    return _DEADLINE


def remaining_deadline() -> float | None:
    """Seconds left until the deadline (None when no deadline is set)."""
    if _DEADLINE is None:
        return None
    return _DEADLINE[0] - time.monotonic()


def check_deadline(what: str) -> None:
    """Raise ``DeadlineExceededError`` if the run deadline has passed.

    Cheap enough for poll loops: one monotonic read when a deadline is
    installed, nothing otherwise.
    """
    deadline = _DEADLINE
    if deadline is None:
        return
    now = time.monotonic()
    ts, total = deadline
    if now < ts:
        return
    from repro.mpi.errors import DeadlineExceededError

    raise DeadlineExceededError(
        f"deadline of {total:.6g}s exceeded after {total + (now - ts):.3f}s "
        f"in {what}"
    )
