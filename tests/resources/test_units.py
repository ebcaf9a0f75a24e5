"""Unit tests for the resources package: governor, admission, report."""

import errno
import pickle
import time

import pytest

from repro.config import RuntimeConfig, resolve_config
from repro.mpi.errors import AdmissionError, DeadlineExceededError
from repro.resources import (
    AdmissionController,
    BudgetExceededError,
    DegradationEvent,
    ResourceBoard,
    ResourceGovernor,
    ResourceReport,
    check_deadline,
    estimate_world_shm,
    is_exhaustion,
    remaining_deadline,
    set_active_deadline,
)


class TestConfigKnobs:
    def test_budget_size_suffixes(self, monkeypatch):
        for raw, expected in (
            ("4096", 4096),
            ("64K", 64 << 10),
            ("64M", 64 << 20),
            ("2g", 2 << 30),
            ("0.5M", 1 << 19),
            ("", 0),
        ):
            monkeypatch.setenv("REPRO_SHM_BUDGET", raw)
            assert resolve_config().shm_budget == expected

    def test_bad_budget_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_BUDGET", "lots")
        with pytest.raises(ValueError, match="REPRO_SHM_BUDGET"):
            resolve_config()

    def test_max_worlds_and_deadline_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORLDS", "3")
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        cfg = resolve_config()
        assert cfg.max_worlds == 3
        assert cfg.deadline == 2.5

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="shm_budget"):
            RuntimeConfig(shm_budget=-1)
        with pytest.raises(ValueError, match="max_worlds"):
            RuntimeConfig(max_worlds=-1)
        with pytest.raises(ValueError, match="deadline"):
            RuntimeConfig(deadline=-0.1)

    def test_json_roundtrip_with_resource_fields(self):
        cfg = RuntimeConfig(shm_budget=1 << 20, max_worlds=2, deadline=9.0)
        assert RuntimeConfig.from_json(cfg.to_json()) == cfg


class TestGovernor:
    def test_gate_denies_over_budget_with_enospc(self):
        gov = ResourceGovernor()
        gov.configure(budget=1000)
        gov.gate("arena", 900)  # within budget: no raise
        gov.charge(900)
        with pytest.raises(BudgetExceededError) as exc_info:
            gov.gate("arena", 200)
        exc = exc_info.value
        assert isinstance(exc, OSError)
        assert exc.errno == errno.ENOSPC
        assert exc.purpose == "arena" and exc.nbytes == 200
        assert is_exhaustion(exc)

    def test_budget_exceeded_error_pickles(self):
        exc = BudgetExceededError("arena", 10, 5, 4)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.errno == errno.ENOSPC
        assert (clone.purpose, clone.nbytes) == ("arena", 10)

    def test_release_frees_budget(self):
        gov = ResourceGovernor()
        gov.configure(budget=1000)
        gov.charge(900)
        gov.release(900)
        gov.gate("arena", 900)  # fits again

    def test_is_exhaustion_routes_on_errno(self):
        assert is_exhaustion(OSError(errno.ENOSPC, "full"))
        assert is_exhaustion(OSError(errno.ENOMEM, "oom"))
        assert not is_exhaustion(OSError(errno.EINVAL, "bad"))
        assert not is_exhaustion(ValueError("nope"))

    def test_summary_counts_events_and_bytes(self):
        gov = ResourceGovernor()
        gov.configure(budget=0)
        gov.charge(100)
        gov.note_degradation("arena", "pickle", 64, "why")
        gov.release(40)
        summary = gov.deconfigure()
        assert summary["events"] == [("arena", "pickle", 64, "why")]
        assert summary["charged"] == 100
        assert summary["released"] == 40
        assert summary["live"] == 60
        assert summary["peak"] == 100

    def test_board_mirror_is_world_wide(self):
        board = ResourceBoard.create(3)
        try:
            a, b = ResourceGovernor(), ResourceGovernor()
            a.configure(budget=100, board=board, slot=0)
            b.configure(budget=100, board=board, slot=1)
            a.charge(80)
            # b sees a's bytes through the board and denies its request.
            with pytest.raises(BudgetExceededError):
                b.gate("arena", 40)
            # Ownership transfer: b unlinks a's segment; the sum nets out.
            b.release(80)
            assert board.total() == 0
            b.gate("arena", 40)
        finally:
            board.close()
            board.unlink()


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


class TestAdmission:
    def test_sole_world_always_admitted(self):
        ctrl = AdmissionController()
        cfg = RuntimeConfig(shm_budget=10, max_worlds=1)
        ticket, waited = ctrl.admit(4, estimate=10**9, config=cfg)
        assert waited < 1.0
        ctrl.release(ticket)

    def test_max_worlds_denial_reason(self):
        ctrl = AdmissionController()
        cfg = RuntimeConfig(max_worlds=2)
        t1, _ = ctrl.admit(2, 0, cfg)
        t2, _ = ctrl.admit(2, 0, cfg)
        with pytest.raises(AdmissionError) as exc_info:
            ctrl.admit(2, 0, cfg, max_wait=0.05)
        assert exc_info.value.reason == "max_worlds"
        ctrl.release(t1)
        ctrl.release(t2)

    def test_shm_budget_denial_reason(self):
        ctrl = AdmissionController()
        cfg = RuntimeConfig(shm_budget=1000)
        t1, _ = ctrl.admit(2, 800, cfg)
        with pytest.raises(AdmissionError) as exc_info:
            ctrl.admit(2, 400, cfg, max_wait=0.05)
        assert exc_info.value.reason == "shm_budget"
        ctrl.release(t1)
        # With the first world gone its promise is released too.
        t2, _ = ctrl.admit(2, 400, cfg)
        ctrl.release(t2)

    def test_waiting_launch_admitted_when_world_finishes(self):
        import threading

        ctrl = AdmissionController()
        cfg = RuntimeConfig(max_worlds=1)
        t1, _ = ctrl.admit(2, 0, cfg)
        threading.Timer(0.1, ctrl.release, args=(t1,)).start()
        t2, waited = ctrl.admit(2, 0, cfg, max_wait=2.0)
        assert 0.05 <= waited < 1.5
        ctrl.release(t2)

    def test_denial_runs_recyclers_before_rejecting(self):
        ctrl = AdmissionController()
        cfg = RuntimeConfig(shm_budget=1000)
        freed: list[int] = []

        def recycler(needed: int) -> int:
            freed.append(needed)
            return 0

        ctrl.register_recycler(recycler)
        t1, _ = ctrl.admit(2, 900, cfg)
        with pytest.raises(AdmissionError):
            ctrl.admit(2, 500, cfg, max_wait=0.05)
        assert freed  # the recycler was consulted
        ctrl.release(t1)

    def test_admission_error_pickles(self):
        exc = AdmissionError("denied", reason="shm_budget")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.reason == "shm_budget"

    def test_estimate_scales_with_world(self):
        # One arena bucket per rank: a page, or what the hint asks for.
        assert estimate_world_shm(2) == 2 * 4096
        assert estimate_world_shm(16) == 16 * 4096
        assert estimate_world_shm(2, payload_hint=1 << 20) == 2 << 20


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
