"""Rank-death detection: SIGKILLed ranks, prompt failure, clean reclamation.

Everything here is process-backend-specific (SIGKILL needs a real
process), so the package's backend sweep is shadowed and the backend is
passed explicitly.
"""

import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

import repro.mpi.comm
from repro.mpi import RankDeadError, SpmdError, run_spmd
from tests.faults.collectives import OPS, rank_death
from tests.faults.inject import Fault, Faulty, InjectedFault

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm"
)


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: SIGKILL semantics are process-only."""
    return None


def _allreduce_prog(comm):
    total = comm.allreduce(np.full(4, float(comm.rank + 1)))
    return float(total[0])


def _sum_prog(comm):
    return float(comm.allreduce(np.ones(8))[0])


class TestRankDeath:
    def test_survivors_fail_promptly_with_dead_rank_named(self):
        t0 = time.monotonic()
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                4,
                Faulty(_allreduce_prog, Fault("allreduce", "crash", 1)),
                backend="process",
                timeout=60.0,
            )
        elapsed = time.monotonic() - t0
        # Detection must be event-driven (seconds), nowhere near the 60 s
        # deadlock timeout the survivors would otherwise burn.
        assert elapsed < 20.0
        failures = exc_info.value.failures
        assert isinstance(failures[1], RankDeadError)
        assert failures[1].dead_rank == 1
        assert failures[1].exitcode == -9  # SIGKILL
        assert "SIGKILL" in str(failures[1])

    @pytest.mark.parametrize("op", OPS)
    def test_death_error_names_last_collective(self, op):
        rank_death(Fault(op, "crash", 2), op)

    def test_the_sweep_covers_every_collective(self):
        source = Path(repro.mpi.comm.__file__).read_text()
        entered = re.findall(r'self\._(?:collective|reduce)\(\s*"(\w+)"', source)
        assert set(entered) == set(OPS)

    def test_dispatch_crash_detected(self):
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                2,
                Faulty(_sum_prog, Fault("dispatch", "crash", 0)),
                backend="process",
            )
        assert isinstance(exc_info.value.failures[0], RankDeadError)

    def test_pool_recovers_after_death(self):
        with pytest.raises(SpmdError):
            run_spmd(
                3,
                Faulty(_sum_prog, Fault("allreduce", "crash", 0)),
                backend="process",
            )
        res = run_spmd(3, _sum_prog, backend="process")
        assert res.values == [3.0, 3.0, 3.0]

    def test_closure_death_detected(self):
        captured = {}

        def prog(comm):  # closure: runs on a one-shot rank pool
            captured["ran"] = True
            return _sum_prog(comm)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                3,
                Faulty(prog, Fault("allreduce", "crash", 1)),
                backend="process",
            )
        assert isinstance(exc_info.value.failures[1], RankDeadError)
        assert exc_info.value.failures[1].dead_rank == 1

    def test_sanitizer_does_not_mask_rank_death(self):
        # Under REPRO_SANITIZE=1 the survivors' sanitizer finalization
        # must not swallow or replace the RankDeadError diagnosis.
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                3,
                Faulty(_allreduce_prog, Fault("allreduce", "crash", 1)),
                backend="process",
                sanitize=1,
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )

    def test_thread_backend_crash_degrades_to_exception(self):
        # SIGKILL would take the whole test process down on the thread
        # backend; a crash must degrade to InjectedFault there.
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                2,
                Faulty(_sum_prog, Fault("allreduce", "crash", 1)),
                backend="thread",
            )
        assert isinstance(exc_info.value.failures[1], InjectedFault)
