"""Fault injection semantics, on both backends (package-wide sweep)."""

import time

import numpy as np
import pytest

from repro.faults import RetryPolicy
from repro.mpi import FaultInjectedError, SpmdError
from tests.conftest import spmd


def _allreduce_prog(comm):
    total = comm.allreduce(np.full(4, float(comm.rank + 1)))
    return float(total[0])


def _two_collectives(comm):
    comm.barrier()
    return float(comm.allreduce(np.ones(2))[0])


class TestExceptionFaults:
    def test_targets_one_rank_at_one_site(self):
        with pytest.raises(SpmdError) as exc_info:
            spmd(3, _allreduce_prog, faults="rank=1:site=allreduce:kind=exception")
        failures = exc_info.value.failures
        assert isinstance(failures[1], FaultInjectedError)
        assert "site 'allreduce'" in str(failures[1])

    def test_nth_counts_per_site(self):
        # barrier is hit first; nth=1 on allreduce must skip it and fire
        # on the first allreduce.
        with pytest.raises(SpmdError) as exc_info:
            spmd(
                2,
                _two_collectives,
                faults="rank=0:site=allreduce:nth=1:kind=exception",
            )
        assert isinstance(exc_info.value.failures[0], FaultInjectedError)

    def test_unmatched_site_never_fires(self):
        res = spmd(2, _two_collectives, faults="rank=0:site=gather:kind=exception")
        assert res.values == [2.0, 2.0]

    def test_p_zero_never_fires(self):
        res = spmd(2, _allreduce_prog, faults="kind=exception:p=0.0")
        assert res.values == [3.0, 3.0]

    def test_dispatch_site_fires_before_user_code(self):
        with pytest.raises(SpmdError) as exc_info:
            spmd(2, _allreduce_prog, faults="rank=1:site=dispatch:kind=exception")
        assert isinstance(exc_info.value.failures[1], FaultInjectedError)

    def test_env_var_injection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "rank=0:site=allreduce:kind=exception")
        with pytest.raises(SpmdError):
            spmd(2, _allreduce_prog)

    def test_probabilistic_faults_are_deterministic(self):
        def outcome():
            try:
                spmd(2, _allreduce_prog, faults="kind=exception:p=0.5:seed=11")
                return "ok"
            except SpmdError as exc:
                return tuple(sorted(exc.failures))

        first = outcome()
        assert all(outcome() == first for _ in range(3))


class TestDelayFaults:
    def test_delay_slows_but_completes(self):
        t0 = time.monotonic()
        res = spmd(
            2,
            _allreduce_prog,
            faults="rank=0:site=allreduce:kind=delay:delay=0.3",
        )
        elapsed = time.monotonic() - t0
        assert res.values == [3.0, 3.0]
        assert elapsed >= 0.3


class TestRetryIntegration:
    def test_retry_recovers_from_injected_failure(self):
        # The clause applies to attempt 1 only (default), so attempt 2
        # runs clean.
        policy = RetryPolicy(
            max_attempts=2, backoff=0.01, retry_on=(FaultInjectedError,)
        )
        res = spmd(
            2,
            _allreduce_prog,
            faults="rank=0:site=allreduce:kind=exception",
            retry=policy,
        )
        assert res.values == [3.0, 3.0]

    def test_sticky_fault_exhausts_attempts(self):
        policy = RetryPolicy(
            max_attempts=2, backoff=0.01, retry_on=(FaultInjectedError,)
        )
        with pytest.raises(SpmdError):
            spmd(
                2,
                _allreduce_prog,
                faults="rank=0:site=allreduce:kind=exception:attempt=*",
                retry=policy,
            )

    def test_no_retry_without_policy(self):
        with pytest.raises(SpmdError):
            spmd(2, _allreduce_prog, faults="rank=0:kind=exception")


class TestResourceFaults:
    """The ``enospc``/``stall`` kinds at the injector level (SPMD-level
    degradation behaviour lives in tests/resources)."""

    def test_enospc_raises_real_errno_at_nth_hit(self):
        import errno

        from repro.faults import FaultInjector, FaultSpec

        inj = FaultInjector(
            FaultSpec.parse("rank=0:site=arena:nth=2:kind=enospc"), rank=0
        )
        inj.fire("arena")  # hit #1: armed for the next one
        with pytest.raises(OSError) as exc_info:
            inj.fire("arena")
        assert exc_info.value.errno == errno.ENOSPC
        inj.fire("arena")  # hit #3: nth=2 is one-shot

    def test_enospc_respects_rank_and_site(self):
        from repro.faults import FaultInjector, FaultSpec

        spec = FaultSpec.parse("rank=1:site=arena:kind=enospc")
        other_rank = FaultInjector(spec, rank=0)
        other_rank.fire("arena")  # clause targets rank 1: no-op
        hit_rank = FaultInjector(spec, rank=1)
        hit_rank.fire("send")  # wrong site: hits counted, nothing fires
        with pytest.raises(OSError):
            hit_rank.fire("arena")

    def test_stall_without_deadline_degrades_to_delay(self):
        from repro.faults import FaultInjector, FaultSpec

        inj = FaultInjector(
            FaultSpec.parse("rank=0:site=recv:kind=stall:delay=0.05"), rank=0
        )
        t0 = time.monotonic()
        inj.fire("recv")
        assert time.monotonic() - t0 >= 0.05

    def test_stall_with_deadline_raises_deadline_error(self):
        from repro.faults import FaultInjector, FaultSpec
        from repro.mpi.errors import DeadlineExceededError
        from repro.resources import set_active_deadline

        inj = FaultInjector(
            FaultSpec.parse("rank=0:site=recv:kind=stall"), rank=0
        )
        previous = set_active_deadline((time.monotonic() + 0.1, 0.1))
        try:
            with pytest.raises(DeadlineExceededError, match="injected stall"):
                inj.fire("recv")
        finally:
            set_active_deadline(previous)
