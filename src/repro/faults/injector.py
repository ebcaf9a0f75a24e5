"""Per-rank fault injector: fires spec clauses at named runtime sites.

One injector is built per rank per launch attempt (by the executor
backend) and threaded to every hook point: the communicator fires
collective-op sites, the process transport fires ``send``/``recv``, the
resource governor fires ``arena``, and the worker entry fires
``dispatch``.  Hit counting is local to the injector, so a retried
launch starts its counters from zero and ``attempt=`` gating decides
whether clauses apply at all.
"""

from __future__ import annotations

import errno
import os
import signal
import time

from repro.faults.spec import FaultClause, FaultSpec


class FaultInjector:
    """Evaluates a :class:`FaultSpec` for one rank of one launch attempt.

    ``hard_crash`` selects what ``kind=crash`` does: ``True`` (process
    backend) SIGKILLs the calling process — the real failure mode the
    runtime must detect and contain — while ``False`` (thread backend,
    where a SIGKILL would take the whole test runner down) degrades to
    raising :class:`~repro.mpi.errors.FaultInjectedError`.
    """

    def __init__(
        self,
        spec: FaultSpec,
        rank: int,
        attempt: int = 1,
        hard_crash: bool = False,
    ):
        self._clauses = spec.clauses_for(rank, attempt)
        self._rank = rank
        self._attempt = attempt
        self._hard_crash = hard_crash
        self._hits: dict[str, int] = {}

    @property
    def active(self) -> bool:
        """Whether any clause can ever fire for this rank/attempt."""
        return bool(self._clauses)

    def fire(self, site: str) -> None:
        """Record a hit at ``site`` and trigger any matching clause.

        Called unconditionally at every hook point; cheap no-op when no
        clause matches this rank/attempt.  Hits are counted even when
        no clause matches the site so ``nth=`` is a property of the
        execution trace, not of the spec.
        """
        if not self._clauses:
            return
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        for clause in self._clauses:
            if not clause.matches_site(site):
                continue
            if clause.nth != hit:
                continue
            if clause.p < 1.0 and clause.chance(self._rank, site, hit) >= clause.p:
                continue
            self._trigger(clause, site, hit)

    def _trigger(self, clause: FaultClause, site: str, hit: int) -> None:
        if clause.kind == "delay":
            time.sleep(clause.delay)
            return
        if clause.kind == "enospc":
            # Indistinguishable from real tmpfs exhaustion: the errno is
            # what routes it into the degradation ladder.
            raise OSError(
                errno.ENOSPC,
                f"injected enospc fault on rank {self._rank} at site "
                f"{site!r} (hit #{hit}, attempt {self._attempt})",
            )
        if clause.kind == "stall":
            self._stall(clause, site)
            return
        if clause.kind == "crash" and self._hard_crash:
            # The point is an *abrupt* death: no teardown, no report.
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover - unreachable
        from repro.mpi.errors import FaultInjectedError

        raise FaultInjectedError(
            f"injected {clause.kind} fault on rank {self._rank} at site "
            f"{site!r} (hit #{hit}, attempt {self._attempt}, clause {clause})"
        )

    def _stall(self, clause: FaultClause, site: str) -> None:
        """Hold the rank here: with a run deadline installed, sleep until
        the deadline check raises (so the stalled rank itself reports
        ``DeadlineExceededError`` promptly); otherwise act like a delay."""
        from repro.resources.governor import active_deadline, check_deadline

        if active_deadline() is None:
            time.sleep(clause.delay)
            return
        while True:
            check_deadline(f"injected stall at {site!r} on rank {self._rank}")
            time.sleep(0.02)
