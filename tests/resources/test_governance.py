"""End-to-end resource governance at the ``run_spmd`` boundary.

Backend choices are deliberate per test (the package sweep is shadowed
in conftest): shm degradation only means anything on the process
backend, while deadlines must fire on both.
"""

import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.faults import RetryPolicy
from repro.mpi import DeadlineExceededError, SpmdError, shutdown_worker_pools
from tests.conftest import deny_first_arena_allocations, spmd


def _collectives(comm, n):
    """Allreduce + bcast, big enough to want real segments."""
    data = np.arange(n, dtype=np.float64) * (comm.rank + 1)
    total = comm.allreduce(data)
    seed = total[:8] if comm.rank == 0 else None
    head = comm.bcast(seed, root=0)
    return float(total.sum()) + float(head.sum())


def _p2p_ring(comm, n):
    """Arena-staged sends: rank r passes its payload to rank r+1."""
    payload = np.full(n, float(comm.rank + 1))
    dest = (comm.rank + 1) % comm.size
    source = (comm.rank - 1) % comm.size
    got = comm.sendrecv(payload, dest=dest, source=source)
    return float(got[0])


def _six_sends_in_flight(comm, n):
    """Six arena-staged messages in flight per rank: more same-bucket
    segments than the arena keeps, so the receivers unlink some."""
    x = np.arange(n, dtype=np.float64) * (comm.rank + 1)
    dest = (comm.rank + 1) % comm.size
    source = (comm.rank - 1) % comm.size
    reqs = [comm.isend(x + k, dest=dest, tag=k) for k in range(6)]
    got = [comm.recv(source=source, tag=k) for k in range(6)]
    for req in reqs:
        req.wait()
    return float(sum(g[0] for g in got))


def _slow_allreduce(comm):
    return float(comm.allreduce(np.ones(4))[0])


class TestExhaustionDegradation:
    def test_exhausted_arena_is_bit_identical_to_fast_path(self):
        fast = spmd(2, _collectives, 4096, backend="process")
        # A warm pool's segments (arena free lists) are legitimately
        # reused without new allocations; start cold so the constrained
        # run has to allocate — and degrade.
        shutdown_worker_pools()
        lean = spmd(
            2,
            _collectives,
            4096,
            backend="process",
            faults=deny_first_arena_allocations(4),
            config=RuntimeConfig(),
        )
        assert lean.values == fast.values
        report = lean.resources
        assert report is not None and report.degraded
        for event in report.degradations:
            assert event.site == "arena"
            assert event.kind == "pickle"
            assert event.nbytes > 0
        assert "degraded" in report.describe()

    def test_arena_degradation_on_p2p_path(self):
        fast = spmd(3, _p2p_ring, 20_000, backend="process")
        shutdown_worker_pools()  # cold arenas: the lean run must allocate
        lean = spmd(
            3,
            _p2p_ring,
            20_000,
            backend="process",
            faults=deny_first_arena_allocations(3),
            config=RuntimeConfig(),
        )
        assert lean.values == fast.values
        report = lean.resources
        assert report.degraded
        assert {e.site for e in report.degradations} == {"arena"}
        assert {e.kind for e in report.degradations} == {"pickle"}

    def test_unconstrained_run_reports_no_degradations(self):
        # Explicit default config: an environment fault spec (the
        # constrained-resources CI step) must not reach this run.
        res = spmd(
            2, _collectives, 4096, backend="process", config=RuntimeConfig()
        )
        report = res.resources
        assert report is not None
        assert not report.degraded
        assert report.charged_bytes > 0
        assert report.peak_bytes <= report.charged_bytes

    def test_thread_backend_reports_empty_resources(self):
        res = spmd(2, _collectives, 256, backend="thread")
        assert res.resources is not None
        assert not res.resources.degraded
        assert res.resources.charged_bytes == 0


class TestAccounting:
    def test_peak_is_the_runs_own_on_a_warm_pool(self):
        # A big run raises each process's high-water mark and unlinks
        # part of what it allocated; the small runs after it on the same
        # warm pool must report their own peak, not the big run's.
        shutdown_worker_pools()
        for n in (200_000, 1000, 1000):
            report = spmd(
                2, _six_sends_in_flight, n, backend="process",
                config=RuntimeConfig(),
            ).resources
            assert 0 < report.charged_bytes
            assert report.peak_bytes <= report.charged_bytes, n


class TestFaultInjection:
    def test_enospc_degrades_the_targeted_collective_segment(self):
        fast = spmd(2, _collectives, 4096, backend="process")
        shutdown_worker_pools()  # cold pool: the faulted run allocates
        hit = spmd(
            2,
            _collectives,
            4096,
            backend="process",
            faults="rank=0:site=arena:kind=enospc:nth=1",
            config=RuntimeConfig(),  # no faults from the environment
        )
        assert hit.values == fast.values
        report = hit.resources
        assert report.degraded
        assert [(e.rank, e.site, e.kind) for e in report.degradations] == [
            (0, "arena", "pickle")
        ]

    def test_enospc_on_arena_site(self):
        fast = spmd(2, _p2p_ring, 20_000, backend="process")
        shutdown_worker_pools()  # cold arenas
        hit = spmd(
            2,
            _p2p_ring,
            20_000,
            backend="process",
            faults="rank=1:site=arena:kind=enospc",
            config=RuntimeConfig(),  # no faults from the environment
        )
        assert hit.values == fast.values
        assert any(
            e.site == "arena" and e.rank == 1
            for e in hit.resources.degradations
        )


class TestDeadline:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stalled_rank_trips_deadline_on_all_ranks(self, backend):
        start = time.monotonic()
        with pytest.raises(SpmdError) as exc_info:
            spmd(
                2,
                _slow_allreduce,
                backend=backend,
                faults="rank=1:site=allreduce:kind=stall",
                deadline=1.5,
            )
        elapsed = time.monotonic() - start
        failures = exc_info.value.failures
        assert failures, "no rank reported a failure"
        for exc in failures.values():
            assert isinstance(exc, DeadlineExceededError)
            assert "deadline of 1.5" in str(exc)
        # Every rank converges well before the deadlock timeout (20 s).
        assert elapsed < 10.0

    def test_generous_deadline_is_invisible(self):
        res = spmd(2, _slow_allreduce, backend="process", deadline=30.0)
        assert res.values == [2.0, 2.0]

    def test_deadline_composes_with_retry(self):
        # First attempt crashes; the relaunch shares the (generous)
        # deadline budget and completes.
        res = spmd(
            2,
            _slow_allreduce,
            backend="process",
            faults="rank=1:site=allreduce:kind=crash:attempt=1",
            retry=RetryPolicy(max_attempts=2, backoff=0.01),
            deadline=30.0,
        )
        assert res.values == [2.0, 2.0]
