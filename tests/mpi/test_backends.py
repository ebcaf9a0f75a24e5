"""Backend conformance suite: every executor backend, same semantics.

Each test here receives the ``spmd_backend`` parameterization from
``conftest.py`` and passes it explicitly to ``run_spmd(backend=...)``, so
the suite pins the contract both backends must satisfy: point-to-point and
collective results, poisoning/fail-fast on rank error, deadlock timeout,
cost-ledger contents, and backend selection/resolution rules.
"""

import os
import time

import numpy as np
import pytest

from repro.mpi import (
    BACKEND_ENV_VAR,
    DeadlockError,
    ProcessBackend,
    RankDeadError,
    SpmdError,
    ThreadBackend,
    available_backends,
    resolve_backend,
    run_spmd,
    SUM,
)


def _pid_prog(comm):
    return os.getpid()


class TwoArgError(Exception):
    """Pickles, but ``pickle.loads`` calls ``__init__`` with one argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise_two_arg_error(comm):
    if comm.rank == 1:
        raise TwoArgError("left", "right")
    return comm.rank


class TestSelection:
    def test_available_backends(self):
        assert set(available_backends()) >= {"thread", "process"}

    def test_resolve_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "thread"

    def test_resolve_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend(None).name == "process"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend("thread").name == "thread"

    def test_instance_passthrough(self):
        backend = ThreadBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            resolve_backend("smoke-signals")

    def test_run_spmd_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            run_spmd(2, lambda comm: None, backend="smoke-signals")

    def test_env_var_reaches_run_spmd(self, spmd_backend):
        # conftest sets REPRO_SPMD_BACKEND; no backend= passed here.
        pids = set(run_spmd(2, _pid_prog).values)
        if spmd_backend == "process":
            assert os.getpid() not in pids and len(pids) == 2
        else:
            assert pids == {os.getpid()}


class ExplicitBackends:
    """Shadow the package autouse parameterization for classes whose tests
    name their backends explicitly (running them twice adds nothing)."""

    @pytest.fixture(autouse=True)
    def spmd_backend(self):
        return None


class TestExecutionModel(ExplicitBackends):
    def test_process_ranks_are_processes(self):
        pids = run_spmd(3, _pid_prog, backend="process").values
        assert len(set(pids)) == 3
        assert os.getpid() not in pids

    def test_thread_ranks_share_the_process(self):
        pids = run_spmd(3, _pid_prog, backend="thread").values
        assert set(pids) == {os.getpid()}


class TestConformance:
    def test_values_in_rank_order(self, spmd_backend):
        res = run_spmd(4, lambda comm: comm.rank * 11, backend=spmd_backend)
        assert res.values == [0, 11, 22, 33]

    def test_shared_and_rank_args(self, spmd_backend):
        res = run_spmd(
            3,
            lambda comm, shared, mine: (shared, mine),
            "s",
            rank_args=[("a",), ("b",), ("c",)],
            backend=spmd_backend,
        )
        assert res.values == [("s", "a"), ("s", "b"), ("s", "c")]

    def test_p2p_small_object(self, spmd_backend):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"n": 1, "tag": "x"}, dest=1)
                return None
            return comm.recv(source=0)

        res = run_spmd(2, prog, backend=spmd_backend)
        assert res[1] == {"n": 1, "tag": "x"}

    def test_p2p_large_array_roundtrip(self, spmd_backend):
        # Large enough to take the shared-memory path under the process
        # backend; values must survive bit-exactly either way.
        payload = np.random.default_rng(7).standard_normal((64, 64))

        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1)
                return None
            return comm.recv(source=0)

        res = run_spmd(2, prog, backend=spmd_backend)
        assert res[1].tobytes() == payload.tobytes()

    def test_p2p_fortran_order_and_exotic_dtypes(self, spmd_backend):
        f_order = np.asfortranarray(np.arange(400.0).reshape(20, 20))
        ints = np.arange(200, dtype=np.int32)
        bools = np.tile([True, False], 200)

        def prog(comm):
            if comm.rank == 0:
                for obj in (f_order, ints, bools):
                    comm.send(obj, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(3)]

        got = run_spmd(2, prog, backend=spmd_backend)[1]
        np.testing.assert_array_equal(got[0], f_order)
        assert got[1].dtype == np.int32
        np.testing.assert_array_equal(got[1], ints)
        assert got[2].dtype == np.bool_
        np.testing.assert_array_equal(got[2], bools)

    def test_structured_dtype_keeps_fields(self, spmd_backend):
        rec = np.zeros(100, dtype=[("a", "f8"), ("b", "i4")])
        rec["a"] = np.arange(100.0)
        rec["b"] = np.arange(100)

        def prog(comm):
            if comm.rank == 0:
                comm.send(rec, dest=1)
                return None
            return comm.recv(source=0)

        got = run_spmd(2, prog, backend=spmd_backend)[1]
        assert got.dtype == rec.dtype
        np.testing.assert_array_equal(got["a"], rec["a"])
        np.testing.assert_array_equal(got["b"], rec["b"])

    def test_object_dtype_arrays_survive(self, spmd_backend):
        objs = np.array([{"i": i} for i in range(64)], dtype=object)

        def prog(comm):
            if comm.rank == 0:
                comm.send(objs, dest=1)
                return None
            return comm.recv(source=0)

        got = run_spmd(2, prog, backend=spmd_backend)[1]
        assert got.dtype == np.dtype(object)
        assert list(got) == list(objs)

    def test_compute_time_does_not_count_against_timeout(self, spmd_backend):
        # The receive timeout bounds *blocking*, not rank runtime: a rank
        # that computes for longer than the timeout and only then
        # communicates must complete on every backend.
        def prog(comm):
            time.sleep(0.8)
            return comm.sendrecv(
                comm.rank,
                dest=(comm.rank + 1) % comm.size,
                source=(comm.rank - 1) % comm.size,
            )

        res = run_spmd(2, prog, timeout=0.3, backend=spmd_backend)
        assert res.values == [1, 0]

    def test_timeout_restarts_on_transport_activity(self, spmd_backend):
        # The deadlock timeout detects a *silent* transport.  A rank may
        # wait longer than the timeout for a slow peer as long as other
        # traffic keeps arriving (thread transport: cond.wait restarts on
        # every notify; process transport must match).
        def prog(comm):
            if comm.rank == 0:
                got = comm.recv(source=2)
                for _ in range(6):
                    comm.recv(source=1, tag=5)
                return got
            if comm.rank == 1:
                for _ in range(6):
                    time.sleep(0.15)
                    comm.send("chatter", dest=0, tag=5)
                return None
            time.sleep(1.2)
            comm.send("late", dest=0)
            return None

        res = run_spmd(3, prog, timeout=0.6, backend=spmd_backend)
        assert res[0] == "late"

    def test_nested_container_payloads(self, spmd_backend):
        big = np.ones((32, 32))

        def prog(comm):
            if comm.rank == 0:
                comm.send(
                    {"arrays": [big, big * 2], "pair": (big * 3, "label")},
                    dest=1,
                )
                return None
            return comm.recv(source=0)

        got = run_spmd(2, prog, backend=spmd_backend)[1]
        np.testing.assert_array_equal(got["arrays"][1], big * 2)
        np.testing.assert_array_equal(got["pair"][0], big * 3)
        assert got["pair"][1] == "label"

    def test_collectives_agree_with_local_math(self, spmd_backend):
        p = 4
        data = [np.full(100, float(r + 1)) for r in range(p)]

        def prog(comm):
            total = comm.allreduce(data[comm.rank], SUM)
            everyone = comm.allgather(comm.rank)
            block = comm.reduce_scatter_block(
                np.arange(float(p * 2)) + comm.rank, SUM
            )
            return float(total[0]), everyone, block.tolist()

        res = run_spmd(p, prog, backend=spmd_backend)
        for rank, (total, everyone, block) in enumerate(res):
            assert total == 10.0
            assert everyone == [0, 1, 2, 3]
            expected = [
                sum(2 * rank + i + r for r in range(p)) for i in range(2)
            ]
            assert block == expected

    def test_subcommunicator_group(self, spmd_backend):
        def prog(comm):
            sub = comm.group([r for r in range(comm.size) if r % 2 == comm.rank % 2])
            return sub.allreduce(comm.rank)

        res = run_spmd(4, prog, backend=spmd_backend)
        assert res.values == [2, 4, 2, 4]

    def test_poisoning_fails_fast(self, spmd_backend):
        # Rank 0 dies immediately; rank 1 blocks on a receive with a long
        # timeout.  Poisoning must unblock rank 1 well before the timeout
        # and the error must carry only the primary failure.
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("original failure")
            comm.recv(source=0)

        start = time.monotonic()
        with pytest.raises(SpmdError, match="original failure") as exc_info:
            run_spmd(2, prog, timeout=30.0, backend=spmd_backend)
        assert time.monotonic() - start < 10.0
        assert set(exc_info.value.failures) == {0}

    def test_deadlock_timeout(self, spmd_backend):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # never sent

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=0.3, backend=spmd_backend)
        assert any(
            isinstance(e, DeadlockError)
            for e in exc_info.value.failures.values()
        )

    def test_all_rank_failures_reported(self, spmd_backend):
        def prog(comm):
            raise KeyError(f"rank{comm.rank}")

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(3, prog, backend=spmd_backend)
        assert set(exc_info.value.failures) == {0, 1, 2}

    def test_exception_that_does_not_unpickle_names_its_rank(
        self, spmd_backend
    ):
        with pytest.raises(SpmdError, match="left and right") as exc_info:
            run_spmd(2, _raise_two_arg_error, backend=spmd_backend)
        failure = exc_info.value.failures[1]
        assert set(exc_info.value.failures) == {1}
        assert "TwoArgError" in f"{type(failure).__name__}: {failure}"

    def test_ledger_charges_recorded(self, spmd_backend):
        def prog(comm):
            with comm.section("work"):
                comm.add_flops(1000)
            comm.allreduce(np.ones(64))
            return None

        res = run_spmd(2, prog, backend=spmd_backend)
        assert res.ledger.total_flops() == 2000
        assert res.ledger.total_messages() == 2
        assert "work" in res.ledger.section_times()
        assert res.modeled_time > 0


class TestCrossBackendParity(ExplicitBackends):
    """The two backends must be observationally indistinguishable."""

    def _run_everywhere(self, prog, n=4, **kwargs):
        return {
            name: run_spmd(n, prog, backend=name, **kwargs)
            for name in ("thread", "process")
        }

    def test_bitwise_identical_allreduce(self):
        data = [
            np.random.default_rng(r).standard_normal(257) for r in range(4)
        ]

        def prog(comm):
            return comm.allreduce(data[comm.rank], SUM)

        by_backend = self._run_everywhere(prog)
        for a, b in zip(
            by_backend["thread"].values, by_backend["process"].values
        ):
            assert a.tobytes() == b.tobytes()

    def test_identical_ledger_event_counts(self):
        def prog(comm):
            comm.bcast(np.ones(50), root=0)
            comm.allgather(comm.rank)
            comm.send(comm.rank, dest=(comm.rank + 1) % comm.size)
            comm.recv(source=(comm.rank - 1) % comm.size)
            comm.add_flops(123)
            return None

        by_backend = self._run_everywhere(prog)
        thread, process = by_backend["thread"], by_backend["process"]
        assert thread.ledger.summary() == process.ledger.summary()
        assert thread.ledger.section_times() == process.ledger.section_times()
        for rank in range(4):
            t_row = thread.ledger.rank_costs(rank)
            p_row = process.ledger.rank_costs(rank)
            assert t_row.messages == p_row.messages
            assert t_row.words_sent == p_row.words_sent
            assert t_row.flops == p_row.flops
            assert t_row.time == p_row.time


class TestProcessBackendRestrictions(ExplicitBackends):
    def test_unpicklable_return_value_fails_that_rank(self):
        def prog(comm):
            if comm.rank == 1:
                return lambda: None  # not picklable
            return comm.rank

        with pytest.raises(SpmdError, match="cannot send back") as exc_info:
            run_spmd(2, prog, backend="process")
        assert set(exc_info.value.failures) == {1}

    def test_parent_state_is_not_mutated(self):
        # Under fork, rank mutations of captured objects stay in the child.
        box = {"touched": False}

        def prog(comm):
            box["touched"] = True

        run_spmd(2, prog, backend="process")
        assert box["touched"] is False

    def test_backend_instance_accepted(self):
        res = run_spmd(2, _pid_prog, backend=ProcessBackend())
        assert len(set(res.values)) == 2

    def test_clean_exit_without_report_detected(self):
        # A rank whose process dies with exit code 0 before reporting
        # (os._exit in rank code, a native library pulling the plug) must
        # surface as a failure, not hang the parent forever.
        def prog(comm):
            if comm.rank == 1:
                os._exit(0)
            return comm.rank

        with pytest.raises(SpmdError, match="before reporting") as exc_info:
            run_spmd(2, prog, backend="process", timeout=60.0)
        failure = exc_info.value.failures[1]
        assert isinstance(failure, RankDeadError)
        assert failure.dead_rank == 1
        assert failure.exitcode == 0
