"""Segment hygiene: nothing leaks — segments or pooled workers.

Shared-memory names live in ``/dev/shm`` on Linux, so leak checking is
direct: snapshot the directory, hammer the process backend (healthy runs,
rank failures, deadlock timeouts — through the arena and the zero-copy
views), tear the pools down, and require the
snapshot to match.  Worker hygiene is checked the same way through
``multiprocessing.active_children``, and, in a fresh interpreter, through
the OS's own list of its children: no helper process runs beside the
rank workers.
"""

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.mpi import (
    SUM,
    RankDeadError,
    SpmdError,
    run_spmd,
    shutdown_worker_pools,
)
from tests.faults.collectives import OPS, rank_death
from tests.faults.inject import Fault, Faulty, refuse_arena

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm"
)


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: everything here is process-backend."""
    return None


def _segments() -> set[str]:
    # rps_: the runtime's segments (transport payloads, status boards);
    # psm_: the standard library's auto-names, which the runtime never
    # makes, so any one of them is a leak too.
    return {
        n for n in os.listdir("/dev/shm") if n.startswith(("psm_", "rps_"))
    }


def _children() -> int:
    return len(multiprocessing.active_children())


@pytest.fixture(autouse=True)
def clean_slate():
    shutdown_worker_pools()
    gc.collect()
    before_segments = _segments()
    before_children = _children()
    yield
    shutdown_worker_pools()
    gc.collect()
    leaked = _segments() - before_segments
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert _children() == before_children, "leaked worker processes"


def _healthy(comm, x):
    view = comm.sendrecv(
        x, dest=(comm.rank + 1) % comm.size, source=(comm.rank - 1) % comm.size
    )
    total = comm.allreduce(x, SUM)
    gathered = comm.allgather(x[:100])
    block = comm.reduce_scatter_block(
        np.tile(x[: 2 * comm.size, None], (1, 50)), SUM
    )
    return float(view[0] + total[0] + gathered[0][0] + block[0][0])


def _unmatched_sender(comm):
    # Deliberately leaves undelivered messages in flight: the executor
    # must reclaim their segments when the run ends.
    comm.send(np.arange(3000.0), dest=(comm.rank + 1) % comm.size, tag=99)
    return comm.rank


def _crash_mid_collective(comm, x):
    if comm.rank == 1:
        raise RuntimeError("induced failure")
    comm.allgather(x)  # poisoned mid-round for the survivors
    return None


def _deadlock(comm):
    if comm.rank == 0:
        comm.recv(source=1)  # never sent
    return None


class TestSegmentHygiene:
    def test_healthy_runs_leak_nothing(self):
        x = np.random.default_rng(0).standard_normal(4096)
        for _ in range(3):  # pooled, warm after the first
            run_spmd(4, _healthy, x, backend="process")

    def test_unmatched_sends_are_reclaimed(self):
        for _ in range(2):
            res = run_spmd(3, _unmatched_sender, backend="process")
            assert res.values == [0, 1, 2]

    def test_rank_failure_leaks_nothing(self):
        x = np.random.default_rng(1).standard_normal(50_000)
        with pytest.raises(SpmdError, match="induced failure"):
            run_spmd(3, _crash_mid_collective, x, backend="process")

    def test_one_shot_failure_leaks_nothing(self):
        big = np.random.default_rng(2).standard_normal(50_000)

        def prog(comm):  # closure: runs on a one-shot pool
            if comm.rank == 0:
                raise ValueError("one-shot failure")
            comm.bcast(big, root=1)

        with pytest.raises(SpmdError, match="one-shot failure"):
            run_spmd(3, prog, backend="process", timeout=10.0)

    def test_deadlock_timeout_leaks_nothing(self):
        with pytest.raises(SpmdError):
            run_spmd(2, _deadlock, backend="process", timeout=0.4)

    def test_sigkill_during_fence_leaks_nothing(self):
        # A rank SIGKILLed at the fence of a collective round (its first
        # receive of the allreduce; the first is the ring's sendrecv):
        # survivors must fail fast with RankDeadError and the parent must
        # reclaim the dead rank's segments.
        x = np.random.default_rng(3).standard_normal(4096)
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                4,
                Faulty(_healthy, Fault("recv", "crash", 1, nth=2)),
                x,
                backend="process",
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        # The pool must come back clean for the next run.
        res = run_spmd(4, _healthy, x, backend="process")
        assert np.isfinite(res.values[0])

    def test_sigkill_during_arena_send_leaks_nothing(self):
        # A rank SIGKILLed mid-send, after staging its payload in the
        # arena: the staged segment belongs to the dead process and must
        # be swept by the crash audit, not orphaned.
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                3,
                Faulty(_unmatched_sender, Fault("send", "crash", 2)),
                backend="process",
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        res = run_spmd(3, _unmatched_sender, backend="process")
        assert res.values == [0, 1, 2]

    def test_exhausted_arena_run_leaks_nothing(self):
        # Every rank's first arena allocations fail with ENOSPC, as on a
        # full /dev/shm: the run degrades to the pickle path and still
        # must leave /dev/shm exactly as it found it.
        x = np.random.default_rng(4).standard_normal(4096)
        res = run_spmd(
            4, Faulty(_healthy, *refuse_arena(4)), x, backend="process"
        )
        assert res.resources is not None and res.resources.degradations

    def test_sigkill_mid_degradation_leaks_nothing(self):
        # A rank dies while the world is running degraded (its first
        # arena allocations refused): the crash audit must sweep
        # whatever the denied-then-degraded allocation path did manage
        # to create.
        x = np.random.default_rng(5).standard_normal(4096)
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                4,
                Faulty(
                    _healthy, *refuse_arena(2), Fault("allreduce", "crash", 1)
                ),
                x,
                backend="process",
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        res = run_spmd(4, _healthy, x, backend="process")
        assert np.isfinite(res.values[0])

    def test_deadline_abort_leaks_nothing(self):
        # Deadline blown mid-collective on every rank: teardown still
        # reclaims staged segments.
        x = np.random.default_rng(6).standard_normal(4096)
        with pytest.raises(SpmdError):
            run_spmd(
                4,
                Faulty(_healthy, Fault("allreduce", "stall", 1)),
                x,
                backend="process",
                deadline=1.0,
            )

    def test_pool_teardown_reaps_workers(self):
        run_spmd(2, _unmatched_sender, backend="process")
        assert _children() >= 2  # warm workers alive
        shutdown_worker_pools()
        assert _children() == 0

    def test_one_shot_pool_leaves_no_segment_when_it_retires(self):
        big = np.random.default_rng(3).standard_normal(50_000)

        def prog(comm):  # closure: runs on a one-shot pool
            comm.allreduce(big, SUM)  # every worker's arena makes segments
            return os.getpid()

        pids = run_spmd(3, prog, backend="process").values
        # Checked before any shutdown: the pool retired with the run.
        assert not _created_by(pids)


class TestDeathAtEveryCollective:
    """A SIGKILL in each collective's messages; ``clean_slate`` checks
    that ``/dev/shm`` is as it was."""

    @pytest.mark.parametrize("op", OPS)
    def test_crash_after_staging_a_send_leaks_nothing(self, op):
        rank_death(Fault("send", "crash", 1), op)

    @pytest.mark.parametrize("op", OPS)
    def test_crash_in_a_receive_leaks_nothing(self, op):
        rank_death(Fault("recv", "crash", 2), op)


def _created_by(pids) -> set[str]:
    return {n for n in _segments() if n.startswith(tuple(f"rps_{p}_" for p in pids))}


#: Run in a fresh interpreter: a P=2 process-backend run whose ranks read
#: their parent's OS children while the run is on, then the parent's
#: children once the pools are shut down (with ``exit``, nothing more:
#: the interpreter just exits; with ``kill``, it SIGKILLs itself).
_CHILDREN_PROBE = """
import json, os, signal, sys
import numpy as np
from repro.mpi import run_spmd, shutdown_worker_pools

def children(pid):
    kids = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            kids.update(int(p) for p in fh.read().split())
    return sorted(kids)

def prog(comm, x):
    during = children(os.getppid())
    comm.allreduce(x)
    return os.getpid(), during

res = run_spmd(2, prog, np.ones(4096), backend="process")
out = {"parent": os.getpid(), "workers": sorted(v[0] for v in res.values),
       "during": [v[1] for v in res.values]}
if sys.argv[1] == "shutdown":
    shutdown_worker_pools()
    out["after"] = children(os.getpid())
print(json.dumps(out), flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _probe(mode: str) -> dict:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Files, not pipes: workers that outlive the probe must not hold up
    # the wait for its output.
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILDREN_PROBE, mode],
            stdout=out, stderr=err, timeout=120, env=env,
        )
        out.seek(0)
        err.seek(0)
        assert proc.returncode == (-9 if mode == "kill" else 0), err.read()
        return json.loads(out.read())


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children",
)
class TestNoHelperProcess:
    def test_the_only_children_are_the_rank_workers(self):
        out = _probe("shutdown")
        # Each rank saw exactly the pool's workers as the parent's
        # children while the run was on: no helper process beside them.
        assert out["during"] == [out["workers"]] * 2
        assert out["after"] == []

    def test_a_normal_exit_leaves_no_segment(self):
        # No shutdown call: the pools and the parent's staging arena are
        # torn down at exit, by the runtime's own atexit hook.
        out = _probe("exit")
        assert not _created_by([out["parent"], *out["workers"]])

    def test_workers_of_a_sigkilled_parent_exit_and_clean_up(self):
        # The parent dies without any teardown: each worker reads the end
        # of its task pipe, unlinks its own segments and the parent's,
        # and exits.
        out = _probe("kill")
        pids = [out["parent"], *out["workers"]]
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                any(_running(p) for p in out["workers"]) or _created_by(pids)
            ):
                time.sleep(0.05)
            assert not [p for p in out["workers"] if _running(p)]
            assert not _created_by(pids)
        finally:
            for pid in out["workers"]:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            for name in _created_by(pids):
                os.unlink(os.path.join("/dev/shm", name))
