"""Admission control: bound concurrent worlds and their shm footprint.

Enforced once per launch at the ``run_spmd`` boundary, *before* any rank
starts.  The singleton :class:`AdmissionController` tracks every active
world with its up-front footprint estimate (sized from the arena
geometry — the perf model's memory picture of a launch) and
reconciles estimates against actual allocations through the usage
sources the backends register (warm-pool resource boards and the parent
governor's staging bytes): admission usage is
``max(live bytes, sum of active estimates)``, so a burst of admitted
launches is bounded by its promises until real allocations take over.

Over-budget launches first trigger the registered recyclers (idle warm
pools are shut down LRU-first, returning their arena free lists to the
budget), then wait with bounded backoff for running worlds to finish, and
finally raise
:class:`~repro.mpi.errors.AdmissionError` with a machine-readable
``reason`` (``"max_worlds"`` or ``"shm_budget"``).

Degradation remains per allocation *inside* an admitted world (see
:mod:`repro.resources.governor`); admission only rejects launches whose
minimal footprint cannot fit at all, or queues them briefly when the
budget is transiently full.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import RuntimeConfig

#: Longest a launch waits for budget/world slots before being rejected.
ADMISSION_WAIT = 2.0
_POLL = 0.02

#: Matches process_transport: minimum arena bucket.
_MIN_SLOT = 4096


def estimate_world_shm(n_ranks: int, payload_hint: int = 0) -> int:
    """Up-front shm footprint estimate for one world, in bytes.

    Models the allocations the transport will make: one arena bucket
    per rank for payload staging, a page unless the payload hint asks
    for more.  Deliberately a *floor*, reconciled upward against actual
    allocations by the controller; drivers with a better model can pass
    ``run_spmd(shm_estimate=)`` instead.
    """
    bucket = _MIN_SLOT
    while bucket < payload_hint:
        bucket <<= 1
    return n_ranks * bucket


@dataclass
class _World:
    ticket: int
    n_ranks: int
    estimate: int


class AdmissionController:
    """Process-wide launch gate for SPMD worlds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._seq = 0
        self._active: dict[int, _World] = {}
        self._usage_sources: list[Callable[[], int]] = []
        self._recyclers: list[Callable[[int], int]] = []

    # -- wiring --------------------------------------------------------

    def register_usage_source(self, source: Callable[[], int]) -> None:
        """Add a callable returning live shm bytes (e.g. a pool board)."""
        with self._lock:
            self._usage_sources.append(source)

    def unregister_usage_source(self, source: Callable[[], int]) -> None:
        with self._lock:
            try:
                self._usage_sources.remove(source)
            except ValueError:
                pass

    def register_recycler(self, recycler: Callable[[int], int]) -> None:
        """Add a callable that frees idle resources (LRU pool shutdown);
        takes the bytes needed, returns the bytes it freed."""
        with self._lock:
            if recycler not in self._recyclers:
                self._recyclers.append(recycler)

    # -- accounting ----------------------------------------------------

    def live_bytes(self) -> int:
        """Measured live shm bytes across all registered sources."""
        from repro.resources.governor import governor

        total = max(0, governor().live_bytes)
        with self._lock:
            sources = list(self._usage_sources)
        for source in sources:
            try:
                total += max(0, source())
            except Exception:
                # A source backed by a reclaimed board must not wedge
                # admission; it will be unregistered by its owner.
                continue
        return total

    def usage(self) -> int:
        """Bytes counted against the budget: actual allocations
        reconciled against the active worlds' promises."""
        with self._lock:
            promised = sum(w.estimate for w in self._active.values())
        return max(self.live_bytes(), promised)

    def active_worlds(self) -> int:
        with self._lock:
            return len(self._active)

    # -- the gate ------------------------------------------------------

    def admit(
        self,
        n_ranks: int,
        estimate: int,
        config: "RuntimeConfig",
        max_wait: float = ADMISSION_WAIT,
    ) -> tuple[int, float]:
        """Admit one world or raise ``AdmissionError``.

        Returns ``(ticket, wait_seconds)``; the caller must pass the
        ticket to :meth:`release` in a ``finally``.
        """
        max_worlds = config.max_worlds
        budget = config.shm_budget
        start = time.monotonic()
        deny_reason = None
        with self._cond:
            while True:
                deny_reason = self._blocked(n_ranks, estimate, config)
                if deny_reason == "shm_budget":
                    # Free idle resources (LRU pools first), then recheck.
                    self._recycle_locked(estimate)
                    deny_reason = self._blocked(n_ranks, estimate, config)
                if deny_reason is None:
                    if budget and self._tight(estimate, budget):
                        # Admitted, but the budget is tightening: recycle
                        # idle pools so the new world starts with room.
                        self._recycle_locked(estimate)
                    self._seq += 1
                    ticket = self._seq
                    self._active[ticket] = _World(ticket, n_ranks, estimate)
                    return ticket, time.monotonic() - start
                waited = time.monotonic() - start
                if waited >= max_wait:
                    break
                self._cond.wait(min(_POLL, max_wait - waited))
        from repro.mpi.errors import AdmissionError

        if deny_reason == "max_worlds":
            raise AdmissionError(
                f"admission denied after {max_wait:.3g}s: "
                f"{self.active_worlds()} world(s) active, "
                f"REPRO_MAX_WORLDS={max_worlds}",
                reason="max_worlds",
            )
        raise AdmissionError(
            f"admission denied after {max_wait:.3g}s: estimated footprint "
            f"{estimate} B cannot fit live usage {self.usage()} B within "
            f"REPRO_SHM_BUDGET={budget}",
            reason="shm_budget",
        )

    def release(self, ticket: int) -> None:
        with self._cond:
            self._active.pop(ticket, None)
            self._cond.notify_all()

    def _blocked(
        self, n_ranks: int, estimate: int, config: "RuntimeConfig"
    ) -> str | None:
        """Why this world cannot start right now (None = admissible).
        Caller holds the lock."""
        if config.max_worlds and len(self._active) >= config.max_worlds:
            return "max_worlds"
        budget = config.shm_budget
        # The sole world is always admissible: per-allocation degradation
        # inside the run is the contract — admission only queues/rejects
        # launches that would *add* to live worlds beyond the budget.
        if budget and self._active:
            promised = sum(w.estimate for w in self._active.values())
            if max(self._live_unlocked(), promised) + estimate > budget:
                return "shm_budget"
        return None

    def _tight(self, estimate: int, budget: int) -> bool:
        """Whether admitting ``estimate`` more bytes crowds the budget.
        Caller holds the lock."""
        return self._live_unlocked() + estimate > budget

    def _live_unlocked(self) -> int:
        """``live_bytes()`` callable while holding the controller lock."""
        self._lock.release()
        try:
            return self.live_bytes()
        finally:
            self._lock.acquire()

    def _recycle_locked(self, needed: int) -> int:
        """Run registered recyclers (idle pools, LRU-first); lock held."""
        recyclers = list(self._recyclers)
        self._lock.release()
        try:
            freed = 0
            for recycler in recyclers:
                try:
                    freed += recycler(needed)
                except Exception:
                    continue
                if freed >= needed:
                    break
            return freed
        finally:
            self._lock.acquire()


_CONTROLLER = AdmissionController()


def admission_controller() -> AdmissionController:
    """The process-wide admission controller."""
    return _CONTROLLER
