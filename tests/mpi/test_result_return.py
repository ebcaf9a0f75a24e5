"""Rank results coming back through the arena on the process backend.

A pooled rank writes the array bytes of whatever it returns once into a
segment of its own arena; only a small pickle crosses the result queue
and the parent copies the bytes out.  The contract checked here: the
caller gets equal, private, writable objects (any object — pickle
protocol 5 finds the buffers inside a ``TuckerTensor``), the segment
stays the rank's and is reused run after run, exhaustion falls back to
the pickle stream with a governor note, and ``/dev/shm`` is as it was
after a healthy run, a raising run and a killed rank.
"""

import gc
import os
import pickle

import numpy as np
import pytest

from repro.core import TuckerTensor
from repro.mpi import (
    ProcessBackend,
    RankDeadError,
    SpmdError,
    run_spmd,
    shutdown_worker_pools,
)
from repro.mpi.process_transport import (
    SHM_MIN_BYTES,
    SegmentArena,
    StagedValue,
    stage_value,
    unstage_value,
)
from tests.faults.inject import Fault, Faulty, refuse_arena

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm"
)

_POOLED = ProcessBackend()
_PREFIXES = ("psm_", "rps_")


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


def _model(seed):
    rng = np.random.default_rng(seed)
    core = np.asfortranarray(rng.standard_normal((6, 5, 4)))
    factors = tuple(
        rng.standard_normal((s, r)) for s, r in zip((12, 10, 9), (6, 5, 4))
    )
    return TuckerTensor(core=core, factors=factors)


def _return_model(comm, seed):
    """Rank 0 a ``TuckerTensor`` beside plain values, the others ``None`` —
    what ``compress --parallel`` returns."""
    if comm.rank == 0:
        return _model(seed), 0.5, np.arange(3.0)  # the last rides in band
    return None


def _own_segments(comm):
    """The names of this worker's ``rps_`` segments in ``/dev/shm``."""
    mine = f"rps_{os.getpid()}_"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(mine))


def _return_then_raise(comm, seed):
    if comm.rank == 1:
        raise ValueError("rank 1 gives up")
    return _model(seed).core


def _return_array(comm, n):
    comm.barrier()
    return np.full(n, float(comm.rank))


def _assert_same_model(got, want):
    assert isinstance(got, TuckerTensor)
    assert got.core.tobytes() == want.core.tobytes()
    assert got.core.flags.f_contiguous == want.core.flags.f_contiguous
    for a, b in zip(got.factors, want.factors):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStageAndUnstage:
    """The two halves, without a rank in between."""

    def test_round_trip_of_any_object(self):
        arena = SegmentArena()
        try:
            value = (_model(3), {"estimate": 0.25}, np.arange(4.0))
            staged, shm = stage_value(value, arena)
            assert isinstance(staged, StagedValue) and shm is not None
            # Core and three factors went out of band, nothing else did.
            assert len(staged.spans) == 4
            assert len(pickle.dumps(staged)) < 2048
            got = unstage_value(staged)
            _assert_same_model(got[0], value[0])
            assert got[1] == value[1]
            np.testing.assert_array_equal(got[2], value[2])
            # Private and writable: scribbling on the copy reaches neither
            # the segment nor a second reading of it.
            got[0].core[...] = -1.0
            arena.recycle(shm)
            again = arena.acquire(1)
            assert again is shm  # the rank reuses it for its next report
            _assert_same_model(unstage_value(staged)[0], value[0])
            arena.recycle(again)
        finally:
            arena.teardown()

    def test_small_and_bufferless_values_take_the_old_route(self):
        arena = SegmentArena()
        try:
            small = np.zeros(SHM_MIN_BYTES // 8 - 1)
            for value in (None, 3.5, "text", small, (small, [small])):
                staged, shm = stage_value(value, arena)
                assert staged is value and shm is None
            assert arena.created == 0
        finally:
            arena.teardown()

    def test_unpicklable_value_is_left_for_the_report_path(self):
        arena = SegmentArena()
        try:
            value = (np.zeros(1000), lambda: None)
            staged, shm = stage_value(value, arena)
            assert staged is value and shm is None
            assert arena.created == 0
        finally:
            arena.teardown()


class TestThroughThePool:
    def test_tucker_tensor_round_trip_and_write_isolation(self):
        want = _model(11)
        first = run_spmd(2, _return_model, 11, backend=_POOLED)
        model, estimate, tail = first[0]
        assert first[1] is None and estimate == 0.5
        np.testing.assert_array_equal(tail, np.arange(3.0))
        _assert_same_model(model, want)
        assert model.core.flags.writeable
        assert all(f.flags.writeable for f in model.factors)
        # Scribble over everything that came back; the next run reuses
        # the rank's segment and must not see it, nor disturb this copy.
        model.core[...] = 7.0
        for f in model.factors:
            f[...] = 7.0
        second = run_spmd(2, _return_model, 12, backend=_POOLED)
        _assert_same_model(second[0][0], _model(12))
        assert np.all(model.core == 7.0)
        assert not first.resources.degradations
        assert not second.resources.degradations

    def test_the_segment_stays_with_the_rank_and_is_reused(self):
        n = 50_000
        run_spmd(2, _return_array, n, backend=_POOLED)
        held = run_spmd(2, _own_segments, backend=_POOLED).values
        for _ in range(3):
            res = run_spmd(2, _return_array, n, backend=_POOLED)
            assert [float(v[0]) for v in res.values] == [0.0, 1.0]
            assert all(v.size == n and v.flags.writeable for v in res.values)
        # Same names after three more reports: nothing new was created,
        # nothing was handed over to the parent.
        assert run_spmd(2, _own_segments, backend=_POOLED).values == held

    def test_enospc_falls_back_to_the_pickle_stream(self):
        want = _model(21)
        shutdown_worker_pools()  # cold arenas: staging must allocate
        res = run_spmd(
            2, Faulty(_return_model, Fault("arena", "enospc", 0)), 21,
            backend=_POOLED,
        )
        _assert_same_model(res[0][0], want)
        assert any(
            e.site == "arena" and e.kind == "pickle" and e.rank == 0
            for e in res.resources.degradations
        )

    def test_refused_allocations_fall_back_to_the_pickle_stream(self):
        shutdown_worker_pools()
        res = run_spmd(
            2, Faulty(_return_array, *refuse_arena(3)), 50_000,
            backend=_POOLED,
        )
        assert [float(v[-1]) for v in res.values] == [0.0, 1.0]
        assert any(e.site == "arena" for e in res.resources.degradations)

    def test_one_shot_pool_returns_the_same(self):
        def forked(comm, seed):  # a closure: runs on a one-shot pool
            return _return_model(comm, seed)

        res = run_spmd(2, forked, 31, backend=_POOLED)
        _assert_same_model(res[0][0], _model(31))


class TestNothingIsLeftBehind:
    """``clean_slate`` compares ``/dev/shm`` before and after each test."""

    def test_healthy_run(self):
        run_spmd(2, _return_model, 1, backend=_POOLED)

    def test_raising_run(self):
        with pytest.raises(SpmdError, match="rank 1 gives up"):
            run_spmd(2, _return_then_raise, 2, backend=_POOLED)
        # The repaired pool serves again.
        res = run_spmd(2, _return_model, 3, backend=_POOLED)
        _assert_same_model(res[0][0], _model(3))

    def test_rank_killed_after_staging(self):
        # Warm the pool so both ranks hold a staged report segment, then
        # kill rank 1 mid-run: its segments (the held one included) have
        # no owner left and only the creator-pid audit can reclaim them.
        run_spmd(2, _return_array, 50_000, backend=_POOLED)
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                2, Faulty(_return_array, Fault("barrier", "crash", 1)),
                50_000, backend=_POOLED,
            )
        assert any(
            isinstance(e, RankDeadError)
            for e in exc_info.value.failures.values()
        )
        res = run_spmd(2, _return_array, 50_000, backend=_POOLED)
        assert [float(v[0]) for v in res.values] == [0.0, 1.0]
