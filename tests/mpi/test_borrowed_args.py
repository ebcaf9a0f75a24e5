"""Borrowed SPMD arguments on the process backend.

The dispatching parent stages an ndarray argument once; every pooled rank
maps the staged segment copy-on-write.  The contract checked here: the
argument is private and writable (a write reaches neither the caller, nor
the other rank, nor the next run), the mapping is gone once the rank
function has returned, nothing is left in ``/dev/shm``, and every way an
argument can travel (a staged segment, pickle after ``ENOSPC``,
inherited by a one-shot pool's fork) shows rank code the same thing.
"""

import errno
import gc
import os

import numpy as np
import pytest

from repro.mpi import (
    ProcessBackend,
    RankDeadError,
    SpmdError,
    run_spmd,
    shutdown_worker_pools,
)
from tests.faults.inject import Fault, Faulty

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm and /proc"
)

_POOLED = ProcessBackend()
_PREFIXES = ("rps_",)

#: Just over 2 MiB: a multi-bucket argument.
_N = (2 << 20) // 8 + 1000


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: everything here is process-backend."""
    return None


@pytest.fixture(autouse=True)
def clean_slate():
    shutdown_worker_pools()
    gc.collect()
    before = _shm_names()
    yield
    shutdown_worker_pools()
    gc.collect()
    leaked = _shm_names() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _shm_names() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith(_PREFIXES)}


def _private_segment_maps() -> list[str]:
    """This process's copy-on-write mappings of runtime segments.

    The status and resource boards are ``rps_`` segments too, but shared
    (``rw-s``); a borrowed argument is the only private (``p``) one.
    """
    found = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) >= 6 and fields[1][3] == "p" and any(
                p in fields[5] for p in _PREFIXES
            ):
                found.append(fields[5])
    return found


def _scribble(comm, x):
    """Report what arrived, then overwrite every element of it."""
    seen = _seen(x)
    mapped = _private_segment_maps()
    x[...] = -(comm.rank + 1.0)
    comm.barrier()  # every rank has written before any rank looks again
    kept = bool(np.all(x == -(comm.rank + 1.0)))
    return seen, kept, bool(x.flags.writeable), mapped


def _maps_only(comm):
    return _private_segment_maps()


def _scribble_and_swap(comm, x):
    """``_scribble``, then swap the scribbled array with the peer."""
    report = _scribble(comm, x)
    peer = 1 - comm.rank
    got = comm.sendrecv(x, dest=peer, source=peer)
    assert np.all(got == -(peer + 1.0))
    return report


def _input():
    return np.arange(_N, dtype=np.float64) + 1.0


def _seen(x):
    return (float(x[0]), float(x[-1]), float(x.sum()))


class TestPrivateAndWritable:
    def test_write_reaches_no_one(self):
        x = _input()
        original = x.copy()
        first = run_spmd(2, _scribble, x, backend=_POOLED)
        for seen, kept, writeable, mapped in first.values:
            assert seen == _seen(original)
            assert writeable
            assert kept  # the other rank's write never showed up here
            assert mapped  # ... and it really was a private mapping
        assert np.array_equal(x, original)  # nor in the caller's array
        # The next run reuses the same arena segment for another array of
        # the same size: no rank may see what it wrote last time.
        zeros = np.zeros(_N)
        second = run_spmd(2, _scribble, zeros, backend=_POOLED)
        assert [v[0] for v in second.values] == [(0.0, 0.0, 0.0)] * 2
        assert not zeros.any()

    def test_mapping_is_gone_after_the_run(self):
        res = run_spmd(2, _scribble, _input(), backend=_POOLED)
        staged = {name for v in res.values for name in v[3]}
        assert staged
        # Same warm workers, no ndarray argument: whatever is still
        # mapped privately was left over by the run above.
        after = run_spmd(2, _maps_only, backend=_POOLED)
        assert after.values == [[], []]

    def test_failed_rank_function_still_unmaps(self):
        with pytest.raises(SpmdError):
            run_spmd(2, _raise_with_argument, _input(), backend=_POOLED)
        after = run_spmd(2, _maps_only, backend=_POOLED)
        assert after.values == [[], []]


def _raise_with_argument(comm, x):
    local = x[1:]  # a view pinned by this frame, hence by the traceback
    raise ValueError(f"rank {comm.rank} saw {local.size}")


class TestEveryRouteLooksTheSame:
    def _reference(self):
        x = _input()
        res = run_spmd(2, _scribble, x, backend=_POOLED)
        return [v[:3] for v in res.values]

    def test_a_large_message_in_the_same_run(self):
        # The rank sends its scribbled argument on through the arena: the
        # argument was still staged on, and mapped from, an rps_ segment.
        expected = self._reference()
        x = _input()
        res = run_spmd(2, _scribble_and_swap, x, backend=_POOLED)
        assert [v[:3] for v in res.values] == expected
        for v in res.values:
            assert v[3]
            assert all(os.path.basename(m).startswith("rps_") for m in v[3])
        assert np.array_equal(x, _input())
        after = run_spmd(2, _maps_only, backend=_POOLED)
        assert after.values == [[], []]

    def test_enospc_degrades_to_pickle(self, monkeypatch):
        expected = self._reference()
        shutdown_worker_pools()  # empty arena: staging must allocate

        def full_tmpfs(nbytes):
            raise OSError(errno.ENOSPC, "No space left on device")

        # The parent's own staging runs outside every rank: stand in for
        # a full /dev/shm in this process, before the pool forks (so its
        # workers see the same full tmpfs).
        monkeypatch.setattr(
            "repro.mpi.process_transport.create_segment", full_tmpfs
        )
        x = _input()
        try:
            res = run_spmd(2, _scribble, x, backend=_POOLED)
        finally:
            shutdown_worker_pools()  # retire the workers that inherited it
        assert any(e.site == "arena" for e in res.resources.degradations)
        assert [v[:3] for v in res.values] == expected
        assert all(v[3] == [] for v in res.values)  # nothing was staged
        assert np.array_equal(x, _input())

    def test_one_shot_pool(self):
        expected = self._reference()
        x = _input()

        def forked(comm, x):  # a closure: runs on a one-shot pool
            return _scribble(comm, x)

        res = run_spmd(2, forked, x, backend=_POOLED)
        assert [v[:3] for v in res.values] == expected
        assert np.array_equal(x, _input())


class TestRankDeath:
    def test_staged_segments_are_reclaimed(self):
        x = _input()
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                2, Faulty(_scribble, Fault("barrier", "crash", 1)), x,
                backend=_POOLED,
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        assert np.array_equal(x, _input())
        # The repaired pool serves again, with clean workers ...
        res = run_spmd(2, _scribble, x, backend=_POOLED)
        assert all(v[1] for v in res.values)
        # ... and clean_slate finds /dev/shm as it was once pools are down.
