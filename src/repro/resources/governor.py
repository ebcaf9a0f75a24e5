"""Per-process resource governor: fault gate, accounting, deadline.

Every process that touches ``/dev/shm`` — the parent (staging arena) and
each rank — owns exactly one :class:`ResourceGovernor` for its lifetime
(:func:`governor`).  The transport's allocation/unlink choke points call
into it:

* :meth:`ResourceGovernor.gate` runs *before* a segment is created: it
  fires the resource fault site (``enospc``/``stall`` clauses with
  ``site=arena``), so an injected ``ENOSPC`` flows through exactly the
  same errno-discriminating handlers as a real full tmpfs.
* :meth:`charge` / :meth:`release` keep this process's live-byte ledger.
* :meth:`note_degradation` records each allocation that fell back to
  the pickle path; the per-run summaries become the
  :class:`~repro.resources.report.ResourceReport`.

The run-scoped state (fault injector, event list, the run's byte
totals and peak) is installed with :meth:`configure` at rank entry and
removed with :meth:`deconfigure` at exit; the live-byte counter
survives across runs because arena free lists do too.

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


#: errno values that mean "resources exhausted" — the only failures the
#: degradation ladder absorbs; anything else is a real bug and re-raises.
EXHAUSTED_ERRNOS = frozenset({errno.ENOSPC, errno.ENOMEM})


def is_exhaustion(exc: BaseException) -> bool:
    """Whether an exception is a resource-exhaustion ``OSError``."""
    return (
        isinstance(exc, OSError) and exc.errno in EXHAUSTED_ERRNOS
    )


class ResourceGovernor:
    """Fault gate + live-byte ledger for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Survives across runs, like the arena's free lists.
        self.live_bytes = 0
        # Run-scoped state.
        self._faults: "FaultInjector | None" = None
        self._events: list[tuple[str, str, int, str]] = []
        self._run_charged = 0
        self._run_released = 0
        self._run_base = 0
        self._run_peak = 0

    # -- run lifecycle -------------------------------------------------

    def configure(self, faults: "FaultInjector | None" = None) -> None:
        """Install the run's fault injector and reset the per-run
        summary counters; the run's peak is measured from here."""
        with self._lock:
            self._faults = faults
            self._events = []
            self._run_charged = 0
            self._run_released = 0
            self._run_base = self._run_peak = self.live_bytes

    def deconfigure(self) -> dict[str, Any]:
        """Remove run-scoped state; returns the run's picklable summary."""
        summary = self.summary()
        with self._lock:
            self._faults = None
        return summary

    # -- allocation path ----------------------------------------------

    def gate(self, purpose: str) -> None:
        """Pre-allocation check: fire the ``purpose`` fault site."""
        faults = self._faults
        if faults is not None:
            faults.fire(purpose)

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
