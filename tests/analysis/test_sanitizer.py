"""Runtime SPMD sanitizer: collective-protocol and request checks.

Every failure-mode test asserts the diagnostic names the rank *and* the
call site — the whole point of the sanitizer is replacing a bare
deadlock timeout with an actionable message.
"""

from __future__ import annotations

import inspect
import os

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    SANITIZE_ENV_VAR,
    CollectiveCall,
    sanitize_level,
)
from repro.mpi import (
    SUM,
    DeadlockError,
    RequestLeakError,
    SpmdError,
    run_spmd,
)
from tests.backend_param import spmd_backend  # noqa: F401 - both backends
from tests.conftest import spmd


class TestLevelResolution:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        assert sanitize_level() == 0

    def test_env_sets_level(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        assert sanitize_level() == 1

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        assert sanitize_level(0) == 0

    def test_level_two_is_rejected(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "2")
        with pytest.raises(
            ValueError, match=r"sanitize level must be one of \(0, 1\), got 2"
        ):
            sanitize_level()

    def test_invalid_env_value(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "chatty")
        with pytest.raises(ValueError, match="REPRO_SANITIZE"):
            sanitize_level()

    def test_invalid_level(self):
        with pytest.raises(ValueError, match="sanitize level"):
            sanitize_level(3)

    def test_run_spmd_rejects_bad_level(self):
        with pytest.raises(ValueError, match="sanitize level"):
            run_spmd(2, lambda comm: None, sanitize=7)


class TestCleanRuns:
    @pytest.mark.parametrize("level", [0, 1])
    def test_all_collectives_clean(self, level):
        def prog(comm):
            x = comm.bcast(np.arange(3.0), root=0)
            g = comm.gather(comm.rank, root=0)
            ag = comm.allgather(comm.rank * 2)
            sc = comm.scatter(
                [i * 10 for i in range(comm.size)] if comm.rank == 1 else None,
                root=1,
            )
            r = comm.reduce(np.ones(2), SUM, root=0)
            ar = comm.allreduce(float(comm.rank))
            rs = comm.reduce_scatter_block(np.ones((comm.size, 2)))
            a2a = comm.alltoall([comm.rank] * comm.size)
            comm.barrier()
            req = comm.ireduce(np.full(2, 1.0), SUM, root=0)
            folded = req.wait()
            sub = comm.split(comm.rank % 2)
            sub_sum = sub.allreduce(1)
            return (x.sum(), g, ag, sc, r, ar, rs.sum(), a2a, folded, sub_sum)

        res = spmd(4, prog, sanitize=level)
        assert res[2][3] == 20  # rank 2's scatter piece
        assert res[0][5] == 6.0  # allreduce of ranks

    def test_ledger_identical_across_levels(self):
        def prog(comm):
            comm.allreduce(np.arange(64.0))
            comm.barrier()
            req = comm.iallreduce(np.ones(8))
            req.wait()
            return comm.allgather(comm.rank)

        times = {
            level: spmd(4, prog, sanitize=level).modeled_time
            for level in (0, 1)
        }
        # The sanitizer's verification is uncharged: bit-identical
        # modeled time at every level.
        assert times[0] == times[1]

    def test_sanitizer_exposed_on_comm(self):
        def prog(comm):
            return (
                comm.sanitizer is not None
                and comm.sanitizer.level,
                comm.split(0).sanitizer is comm.sanitizer,
            )

        assert spmd(2, prog, sanitize=1)[0] == (1, True)

        def prog_off(comm):
            return comm.sanitizer is None

        assert spmd(2, prog_off, sanitize=0)[0] is True


class TestCollectiveMismatch:
    def test_mismatched_ops_named_with_sites(self):
        def prog(comm):
            if comm.rank == 0:
                comm.bcast(1.0, root=0)
            else:
                comm.allreduce(1.0)

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        msg = str(err.value)
        assert "CollectiveMismatchError" in msg
        assert "bcast#0" in msg and "allreduce#0" in msg
        assert "rank 0" in msg and "rank 1" in msg
        assert "test_sanitizer.py" in msg  # call sites, not runtime frames
        assert "diverged" in msg

    def test_reordered_collectives(self):
        def prog(comm):
            if comm.rank == 0:
                comm.bcast(1.0, root=0)
                comm.allreduce(2.0)
            else:
                comm.allreduce(2.0)
                comm.bcast(1.0, root=0)

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        assert "reordered" in str(err.value)

    def test_mismatched_root(self):
        def prog(comm):
            comm.bcast(3.0, root=0 if comm.rank == 0 else 1)

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        assert "root=0" in str(err.value) and "root=1" in str(err.value)

    def test_mismatched_reduce_op(self):
        from repro.mpi import MAX

        def prog(comm):
            comm.allreduce(1.0, SUM if comm.rank == 0 else MAX)

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        msg = str(err.value)
        assert "op=SUM" in msg and "op=MAX" in msg

    def test_uneven_payloads_stay_legal(self):
        # gather/reduce tolerate per-rank shapes; the digest must not
        # include them (only reduce_scatter_block is shape-strict).
        def prog(comm):
            got = comm.gather(np.ones(comm.rank + 1), root=0)
            comm.reduce(np.ones(1) if comm.rank else np.ones((2, 1)), SUM, 0)
            return None if got is None else [g.size for g in got]

        assert spmd(3, prog, sanitize=1)[0] == [1, 2, 3]

    def test_nb_vs_blocking_collective_flagged(self):
        # MPI forbids matching a non-blocking collective with a blocking
        # one.
        def prog(comm):
            if comm.rank == 0:
                comm.allreduce(np.ones(2))
            else:
                comm.iallreduce(np.ones(2)).wait()

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        msg = str(err.value)
        assert "allreduce#0" in msg and "iallreduce#0" in msg


class TestRequestLifetimes:
    def test_leaked_isend(self):
        def prog(comm):
            if comm.rank == 0:
                comm.isend(np.ones(4), dest=1)  # never waited
            else:
                comm.recv(0)

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        msg = str(err.value)
        assert "RequestLeakError" in msg
        assert "isend" in msg and "never waited" in msg
        assert "test_sanitizer.py" in msg

    def test_leaked_ireduce(self):
        def prog(comm):
            comm.ireduce(np.ones(2), root=0)  # all ranks leak it

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        assert "ireduce" in str(err.value)

    def test_double_wait(self):
        def prog(comm):
            peer = 1 - comm.rank
            req = comm.isendrecv(np.ones(2), dest=peer, source=peer)
            req.wait()
            req.wait()

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, sanitize=1)
        msg = str(err.value)
        assert "RequestStateError" in msg and "double wait" in msg

    def test_double_wait_legal_unsanitized(self):
        def prog(comm):
            peer = 1 - comm.rank
            req = comm.isendrecv(np.full(2, 7.0), dest=peer, source=peer)
            first = req.wait()
            again = req.wait()  # served from the cache
            return np.array_equal(first, again)

        assert all(spmd(2, prog, sanitize=0))

    def test_deep_pipeline_waits_once_each(self):
        # Five rounds in flight at once: the user's single wait per
        # request is legal (and required) under the sanitizer.
        def prog(comm):
            reqs = [
                comm.ireduce(np.full(4, float(i)), SUM, root=0)
                for i in range(5)
            ]
            return [req.wait() is not None for req in reqs]

        res = spmd(4, prog, sanitize=1)
        assert res[0] == [True] * 5

    def test_deadlock_annotated_with_last_collective(self):
        # Subset participation never meets a peer's digest; the timeout
        # must carry the sanitizer context.
        def prog(comm):
            if comm.rank == 0:
                comm.bcast(1.0, root=0)
            # rank 1 returns without entering the collective

        with pytest.raises(SpmdError) as err:
            spmd(2, prog, timeout=2.0, sanitize=1)
        msg = str(err.value)
        assert "sanitizer: last collective" in msg
        assert "bcast#0" in msg


# -- SPMD programs with protocol bugs, run under the sanitizer ----------------
#
# Each program runs on two ranks.  A collective that only some ranks reach
# deadlocks, and the timeout carries the hung rank's last collective and
# its line; a request nobody waits fails the run at finalize, naming the
# line that posted it.  These are the checks' only evidence: a bug on a
# path no test runs is invisible to them.


def broken(comm, data):
    if comm.rank == 0:
        # Only rank 0 enters the reduction: everyone else has returned.
        total = comm.allreduce(data)
    else:
        total = None
    return total


def also_broken(comm, data):
    if comm.Get_rank() % 2 == 0:
        comm.barrier()
    return data


def legal_root_asymmetry(comm, data):
    # Both paths reach the *same* collective: root/non-root pairing.
    if comm.rank == 0:
        out = comm.bcast(data, root=0)
    else:
        out = comm.bcast(None, root=0)
    return out


def discarded(comm):
    peer = 1 - comm.rank
    comm.isend(np.ones(4), dest=peer)  # nothing holds the handle
    return comm.recv(source=peer)


def never_waited(comm):
    req = comm.ireduce(np.ones(8), root=0)  # noqa: F841 - no wait on any path
    return comm.rank


def waited_is_fine(comm):
    req = comm.iallreduce(np.ones(2))
    return req.wait()


def escaped(comm, bag):
    # The handle escapes into a container, but nobody waits it before
    # the rank returns: still a leak.
    peer = 1 - comm.rank
    bag.append(comm.isendrecv(np.ones(2), dest=peer, source=peer))
    return len(bag)


def _line_of(fn, needle: str) -> int:
    lines, start = inspect.getsourcelines(fn)
    return start + next(i for i, text in enumerate(lines) if needle in text)


class TestProtocolBugPrograms:
    @pytest.mark.parametrize(
        "prog, op, needle",
        [
            (broken, "allreduce", "comm.allreduce(data)"),
            (also_broken, "barrier", "comm.barrier()"),
        ],
        ids=["broken", "also_broken"],
    )
    def test_partial_collective_deadlock_names_the_call(self, prog, op, needle):
        with pytest.raises(SpmdError) as err:
            spmd(2, prog, 1.0, sanitize=1, timeout=1.0)
        assert set(err.value.failures) == {0}
        exc = err.value.failures[0]
        assert isinstance(exc, DeadlockError)
        site = f"test_sanitizer.py:{_line_of(prog, needle)}"
        assert [
            note for note in getattr(exc, "__notes__", [])
            if f"sanitizer: last collective rank 0 (world 0): {op}#0" in note
            and note.endswith(site)
        ]

    @pytest.mark.parametrize(
        "prog, args, op, needle",
        [
            (discarded, (), "isend", "comm.isend("),
            (never_waited, (), "ireduce", "comm.ireduce("),
            (escaped, ([],), "isendrecv", "comm.isendrecv("),
        ],
        ids=["discarded", "never_waited", "escaped"],
    )
    def test_unwaited_request_leaks(self, prog, args, op, needle):
        with pytest.raises(SpmdError) as err:
            spmd(2, prog, *args, sanitize=1)
        site = f"test_sanitizer.py:{_line_of(prog, needle)}"
        assert err.value.failures
        for exc in err.value.failures.values():
            assert isinstance(exc, RequestLeakError)
            assert f"{op} (request #0) posted at " in str(exc)
            assert str(exc).endswith(site)

    @pytest.mark.parametrize(
        "prog, args",
        [(legal_root_asymmetry, (1.0,)), (waited_is_fine, ())],
        ids=["legal_root_asymmetry", "waited_is_fine"],
    )
    def test_correct_programs_pass(self, prog, args):
        assert len(spmd(2, prog, *args, sanitize=1).values) == 2


class TestSignatureModel:
    """Unit coverage of the signature/digest vocabulary."""

    def test_digest_ignores_shape_except_strict_ops(self):
        a = CollectiveCall("gather", 3, 0, 0, dtype="float64", shape="4")
        b = CollectiveCall("gather", 3, 1, 1, dtype="float64", shape="9")
        assert a.digest == b.digest
        c = CollectiveCall(
            "reduce_scatter_block", 3, 0, 0, dtype="float64", shape="4"
        )
        d = CollectiveCall(
            "reduce_scatter_block", 3, 1, 1, dtype="float64", shape="9"
        )
        assert c.digest != d.digest

    def test_digest_is_nonzero_63bit(self):
        for seq in range(50):
            digest = CollectiveCall("bcast", seq, 0, 0).digest
            assert 0 < digest < 2**63

    def test_wire_round_trip(self):
        sig = CollectiveCall(
            "reduce", 7, 1, 3, root=0, reduce_op="SUM",
            dtype="float64", shape="2x2", site="prog.py:10",
        )
        assert CollectiveCall.from_wire(sig.wire()) == sig


class TestCliFlag:
    def test_parser_accepts_sanitize(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["compress", "in.npy", "out.npz", "--parallel", "2",
             "--sanitize", "1"]
        )
        assert args.sanitize == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compress", "in.npy", "out.npz", "--parallel", "2",
                 "--sanitize", "2"]
            )

    def test_sanitize_requires_parallel(self, tmp_path):
        from repro.cli import main

        src = tmp_path / "x.npy"
        np.save(src, np.ones((4, 4)))
        rc = main(
            ["compress", str(src), str(tmp_path / "out.npz"), "--sanitize",
             "1"]
        )
        assert rc == 2
