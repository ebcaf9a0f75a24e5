"""Per-process resource governor: accounting and the run deadline.

Every process that touches ``/dev/shm`` — the parent (staging arena) and
each rank — owns exactly one :class:`ResourceGovernor` for its lifetime
(:func:`governor`).  The transport's allocation/unlink choke points call
into it:

* :meth:`ResourceGovernor.charge` / :meth:`release` keep this process's
  live-byte ledger.
* :meth:`note_degradation` records each allocation that fell back to
  the pickle path (a full tmpfs refused it with ``ENOSPC``); the per-run
  summaries become the :class:`~repro.resources.report.ResourceReport`.

The run-scoped state (event list, the run's byte totals and peak) is
reset with :meth:`configure` at rank entry and read with :meth:`summary`
at exit; the live-byte counter survives across runs because arena free
lists do too.

This module also owns the cooperative deadline:
:func:`set_active_deadline` installs an absolute ``time.monotonic``
timestamp (shipped from the parent, so every rank shares one budget)
and :func:`check_deadline` raises
:class:`~repro.mpi.errors.DeadlineExceededError` naming the operation
and elapsed time.  Checks live at collective entries and blocking
receives — all ranks converge on the failure within seconds.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from typing import Any


#: errno values that mean "resources exhausted" — the only failures the
#: degradation ladder absorbs; anything else is a real bug and re-raises.
EXHAUSTED_ERRNOS = frozenset({errno.ENOSPC, errno.ENOMEM})


def is_exhaustion(exc: BaseException) -> bool:
    """Whether an exception is a resource-exhaustion ``OSError``."""
    return (
        isinstance(exc, OSError) and exc.errno in EXHAUSTED_ERRNOS
    )


class ResourceGovernor:
    """Live-byte ledger and degradation log for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Survives across runs, like the arena's free lists.
        self.live_bytes = 0
        # Run-scoped state.
        self._events: list[tuple[str, str, int, str]] = []
        self._run_charged = 0
        self._run_released = 0
        self._run_base = 0
        self._run_peak = 0

    # -- run lifecycle -------------------------------------------------

    def configure(self) -> None:
        """Reset the per-run summary counters; the run's peak is
        measured from here."""
        with self._lock:
            self._events = []
            self._run_charged = 0
            self._run_released = 0
            self._run_base = self._run_peak = self.live_bytes

    # -- allocation path ----------------------------------------------

    def charge(self, nbytes: int) -> None:
        with self._lock:
            self.live_bytes += nbytes
            self._run_peak = max(self._run_peak, self.live_bytes)
            self._run_charged += nbytes

    def release(self, nbytes: int) -> None:
        with self._lock:
            self.live_bytes -= nbytes
            self._run_released += nbytes

    def note_degradation(
        self, site: str, kind: str, nbytes: int, detail: str = ""
    ) -> None:
        """Record one allocation that fell back to the pickle path."""
        with self._lock:
            self._events.append((site, kind, int(nbytes), detail))

    def summary(self) -> dict[str, Any]:
        """Picklable per-run summary for the report channel."""
        with self._lock:
            return {
                "events": list(self._events),
                "live": max(0, self.live_bytes),
                "peak": max(0, self._run_peak - self._run_base),
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
