"""Unit tests for the resources package: governor, deadline, report."""

import errno
import pickle
import time

import pytest

from repro.config import RuntimeConfig, resolve_config
from repro.faults import FaultInjector, FaultSpec
from repro.mpi.errors import DeadlineExceededError
from repro.resources import (
    DegradationEvent,
    ResourceGovernor,
    ResourceReport,
    check_deadline,
    is_exhaustion,
    remaining_deadline,
    set_active_deadline,
)

_MB = 1 << 20


class TestConfigKnobs:
    def test_deadline_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        assert resolve_config().deadline == 2.5

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            RuntimeConfig(deadline=-0.1)


class TestGovernor:
    def test_gate_fires_the_arena_fault_site(self):
        gov = ResourceGovernor()
        spec = FaultSpec.parse("rank=0:site=arena:kind=enospc:nth=2")
        gov.configure(faults=FaultInjector(spec, 0, 1))
        gov.gate("arena")  # first hit: no clause
        with pytest.raises(OSError) as exc_info:
            gov.gate("arena")
        assert exc_info.value.errno == errno.ENOSPC
        assert is_exhaustion(exc_info.value)
        gov.deconfigure()
        gov.gate("arena")  # no injector outside a run

    def test_gate_without_faults_never_denies(self):
        gov = ResourceGovernor()
        gov.configure()
        gov.charge(1 << 40)
        gov.gate("arena")

    def test_is_exhaustion_routes_on_errno(self):
        assert is_exhaustion(OSError(errno.ENOSPC, "full"))
        assert is_exhaustion(OSError(errno.ENOMEM, "oom"))
        assert not is_exhaustion(OSError(errno.EINVAL, "bad"))
        assert not is_exhaustion(ValueError("nope"))

    def test_summary_counts_events_and_bytes(self):
        gov = ResourceGovernor()
        gov.configure()
        gov.charge(100)
        gov.note_degradation("arena", "pickle", 64, "why")
        gov.release(40)
        summary = gov.deconfigure()
        assert summary["events"] == [("arena", "pickle", 64, "why")]
        assert summary["charged"] == 100
        assert summary["released"] == 40
        assert summary["live"] == 60
        assert summary["peak"] == 100

    def test_peak_is_the_runs_own(self):
        # An earlier run's high-water mark must not leak into a later
        # run's peak: it is measured from the live bytes at configure.
        gov = ResourceGovernor()
        gov.configure()
        gov.charge(10 * _MB)
        gov.release(8 * _MB)
        assert gov.deconfigure()["peak"] == 10 * _MB
        gov.configure()
        gov.charge(1 * _MB)
        summary = gov.deconfigure()
        assert summary["peak"] == 1 * _MB
        assert summary["live"] == 3 * _MB

    def test_run_that_allocates_nothing_has_no_peak(self):
        gov = ResourceGovernor()
        gov.configure()
        gov.charge(4 * _MB)
        gov.deconfigure()
        gov.configure()
        gov.release(4 * _MB)
        assert gov.deconfigure()["peak"] == 0


class TestDeadline:
    def test_check_raises_past_deadline_naming_op(self):
        previous = set_active_deadline((time.monotonic() - 0.01, 5.0))
        try:
            with pytest.raises(DeadlineExceededError, match="allreduce fence"):
                check_deadline("allreduce fence")
        finally:
            set_active_deadline(previous)

    def test_check_is_noop_before_deadline_or_unset(self):
        previous = set_active_deadline((time.monotonic() + 60.0, 60.0))
        try:
            check_deadline("anything")
            assert 59.0 < remaining_deadline() <= 60.0
        finally:
            set_active_deadline(previous)
        check_deadline("no deadline installed")
        assert remaining_deadline() is None


class TestReport:
    def test_fold_rank_summaries(self):
        report = ResourceReport.from_rank_summaries(
            {
                0: {
                    "events": [("arena", "pickle", 64, "denied")],
                    "live": 10,
                    "peak": 100,
                    "charged": 90,
                    "released": 80,
                },
                1: None,  # a rank that never configured (or died)
                -1: {
                    "events": [],
                    "live": 5,
                    "peak": 50,
                    "charged": 50,
                    "released": 45,
                },
            }
        )
        assert report.degraded
        (event,) = report.degradations
        assert event == DegradationEvent(0, "arena", "pickle", 64, "denied")
        assert report.rank_live_bytes == {0: 10, -1: 5}
        assert report.charged_bytes == 140
        assert report.released_bytes == 125
        assert "degraded" in report.describe()

    def test_empty_report(self):
        report = ResourceReport()
        assert not report.degraded
        assert "no degradations" in report.describe()

    def test_events_survive_pickle(self):
        report = ResourceReport(
            degradations=[DegradationEvent(1, "arena", "pickle", 8, "x")]
        )
        clone = pickle.loads(pickle.dumps(report))
        assert clone.degradations == report.degradations
