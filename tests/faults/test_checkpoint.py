"""Checkpoint/restart for ``dist_sthosvd``: per-mode commit, resume, recovery.

The SPMD tests run under both backends via the package sweep — the
collective sequence is backend-independent, so ``site=allreduce:nth=3``
interrupts the run at the same algorithmic point everywhere.  The final
class is the issue's acceptance scenario and is process-backend only
(it SIGKILLs a rank).
"""

import os

import numpy as np
import pytest

from repro.faults import RetryPolicy
from repro.io import (
    checkpoint_digest,
    clear_checkpoint,
    clear_checkpoint_step,
    commit_checkpoint_meta,
    load_checkpoint_state,
    read_checkpoint_meta,
    save_checkpoint_state,
)
from repro.mpi import SpmdError
from tests.conftest import spmd

SHAPE = (12, 10, 8)
GRID = (2, 2, 1)
RANKS = (4, 4, 4)
N_RANKS = 4

#: Interrupts the run after exactly two committed modes (deterministic,
#: identical on both backends: hit counts follow the collective sequence).
MID_RUN_FAULT = "rank=1:site=allreduce:nth=3:kind=exception"


def _sthosvd_prog(comm, ckpt):
    from repro.distributed import DistTensor, dist_sthosvd
    from repro.mpi import CartGrid

    grid = CartGrid(comm, GRID)
    full = np.random.default_rng(7).standard_normal(SHAPE)
    dt = DistTensor.from_global(grid, full)
    res = dist_sthosvd(dt, ranks=RANKS, checkpoint=ckpt)
    return (
        [np.ascontiguousarray(f) for f in res.factors_local],
        np.ascontiguousarray(res.core.local),
    )


def _reference_prog(comm):
    return _sthosvd_prog(comm, None)


class TestCheckpointStore:
    """Direct unit coverage of the tucker_io checkpoint helpers."""

    def test_state_roundtrip(self, tmp_path):
        local = np.arange(24.0).reshape(2, 3, 4)
        factors = {0: np.eye(3), 2: np.ones((4, 2))}
        eigs = {0: np.array([3.0, 1.0]), 2: np.array([2.0])}
        save_checkpoint_state(
            tmp_path, step=1, rank=0, local=local,
            global_shape=(4, 3, 4), factors=factors, eigenvalues=eigs,
        )
        state = load_checkpoint_state(tmp_path, step=1, rank=0)
        assert (state["local"] == local).all()
        assert state["global_shape"] == (4, 3, 4)
        assert set(state["factors"]) == {0, 2}
        assert (state["factors"][2] == factors[2]).all()
        assert (state["eigenvalues"][0] == eigs[0]).all()

    def test_no_partial_files_on_disk(self, tmp_path):
        save_checkpoint_state(
            tmp_path, 0, 0, np.zeros(2), (2,), {}, {},
        )
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))

    def test_meta_roundtrip_and_clear(self, tmp_path):
        assert read_checkpoint_meta(tmp_path) is None
        commit_checkpoint_meta(tmp_path, "abc", 2, 4, (0, 1, 2), 0.1 + 0.2)
        meta = read_checkpoint_meta(tmp_path)
        assert meta["digest"] == "abc"
        assert meta["completed"] == 2
        assert meta["order"] == [0, 1, 2]
        assert meta["x_norm_sq"] == 0.1 + 0.2  # every bit of the float
        clear_checkpoint(tmp_path)
        assert read_checkpoint_meta(tmp_path) is None

    def test_clear_step_is_selective(self, tmp_path):
        for step in (0, 1):
            save_checkpoint_state(tmp_path, step, 0, np.zeros(2), (2,), {}, {})
        clear_checkpoint_step(tmp_path, 0)
        names = os.listdir(tmp_path)
        assert "m0_r0.npz" not in names and "m1_r0.npz" in names

    def test_digest_is_order_insensitive_and_value_sensitive(self):
        a = checkpoint_digest({"x": 1, "y": [2, 3]})
        b = checkpoint_digest({"y": [2, 3], "x": 1})
        c = checkpoint_digest({"x": 1, "y": [2, 4]})
        assert a == b and a != c


class TestCheckpointProtocol:
    def test_mid_run_failure_leaves_committed_state(self, tmp_path):
        ckpt = tmp_path / "ck"
        with pytest.raises(SpmdError):
            spmd(N_RANKS, _sthosvd_prog, str(ckpt), faults=MID_RUN_FAULT)
        meta = read_checkpoint_meta(ckpt)
        assert meta is not None and meta["completed"] == 2
        # Only the newest step survives; superseded step files are retired.
        names = sorted(os.listdir(ckpt))
        assert names == [f"m1_r{r}.npz" for r in range(N_RANKS)] + ["meta.json"]

    def test_resume_uses_saved_state_not_recomputation(self, tmp_path):
        ckpt = tmp_path / "ck"
        with pytest.raises(SpmdError):
            spmd(N_RANKS, _sthosvd_prog, str(ckpt), faults=MID_RUN_FAULT)
        # Poison the committed factor of mode 0 in every rank's step
        # file: if the relaunch really resumes, the tampered factor must
        # flow through to the result untouched (completed modes are
        # never recomputed).
        tampered = {}
        for rank in range(N_RANKS):
            state = load_checkpoint_state(ckpt, 1, rank)
            state["factors"][0] = state["factors"][0] + 1000.0
            tampered[rank] = state["factors"][0]
            save_checkpoint_state(
                ckpt, 1, rank, state["local"], state["global_shape"],
                state["factors"], state["eigenvalues"],
            )
        res = spmd(N_RANKS, _sthosvd_prog, str(ckpt))
        for rank in range(N_RANKS):
            factors, _ = res.values[rank]
            assert (factors[0] == tampered[rank]).all()

    def test_digest_mismatch_refuses_resume(self, tmp_path):
        ckpt = tmp_path / "ck"
        with pytest.raises(SpmdError):
            spmd(N_RANKS, _sthosvd_prog, str(ckpt), faults=MID_RUN_FAULT)

        def other_params(comm, path):
            from repro.distributed import DistTensor, dist_sthosvd
            from repro.mpi import CartGrid

            grid = CartGrid(comm, GRID)
            full = np.random.default_rng(7).standard_normal(SHAPE)
            dt = DistTensor.from_global(grid, full)
            return dist_sthosvd(dt, ranks=(3, 3, 3), checkpoint=path)

        with pytest.raises(SpmdError, match="different parameters"):
            spmd(N_RANKS, other_params, str(ckpt))

    def test_successful_run_clears_the_store(self, tmp_path):
        ckpt = tmp_path / "ck"
        spmd(N_RANKS, _sthosvd_prog, str(ckpt))
        assert read_checkpoint_meta(ckpt) is None
        assert not [n for n in os.listdir(ckpt) if n.endswith(".npz")]

    def test_interrupted_then_resumed_matches_uninjected(self, tmp_path):
        ref = spmd(N_RANKS, _reference_prog).values
        ckpt = tmp_path / "ck"
        with pytest.raises(SpmdError):
            spmd(N_RANKS, _sthosvd_prog, str(ckpt), faults=MID_RUN_FAULT)
        res = spmd(N_RANKS, _sthosvd_prog, str(ckpt))
        for rank in range(N_RANKS):
            ref_factors, ref_core = ref[rank]
            factors, core = res.values[rank]
            for a, b in zip(ref_factors, factors):
                assert (a == b).all()
            assert (ref_core == core).all()


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm"
)
class TestAcceptance:
    """The issue's acceptance scenario: SIGKILL + retry + checkpoint."""

    @pytest.fixture(autouse=True)
    def spmd_backend(self):
        return None  # shadow the sweep: SIGKILL is process-backend only

    def test_crash_retry_checkpoint_bit_identical(self, tmp_path):
        from repro.mpi import run_spmd

        ref = run_spmd(N_RANKS, _reference_prog, backend="process").values
        ckpt = tmp_path / "ck"
        res = run_spmd(
            N_RANKS,
            _sthosvd_prog,
            str(ckpt),
            backend="process",
            faults="rank=1:site=allreduce:nth=3:kind=crash",
            retry=RetryPolicy(max_attempts=3, backoff=0.01),
        )
        for rank in range(N_RANKS):
            ref_factors, ref_core = ref[rank]
            factors, core = res.values[rank]
            for a, b in zip(ref_factors, factors):
                assert (a == b).all()
            assert (ref_core == core).all()
        # The retried launch completed, so the store must be cleared.
        assert read_checkpoint_meta(ckpt) is None
