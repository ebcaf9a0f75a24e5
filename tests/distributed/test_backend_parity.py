"""Thread vs. process backend parity on the full distributed stack.

The acceptance bar for the executor-backend layer: a 4-rank distributed
ST-HOSVD must produce *bit-identical* Tucker factors and core, and an
identical cost ledger, no matter which backend executed the ranks.  Both
backends run the very same deterministic rank code (reductions fold in
group-rank order), so any divergence is a transport bug, not roundoff.
"""

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import SUM, CartGrid, run_spmd, shutdown_worker_pools
from repro.tensor import low_rank_tensor
from tests.conftest import recon_atol
from tests.reference import st_hosvd

GRID = (1, 2, 2)
N_RANKS = 4


@pytest.fixture(autouse=True)
def spmd_backend():
    """Override the package-level parameterization: every test here runs
    both backends explicitly, so the env-var sweep would only double it."""
    return None


def _factors_prog(x, grid=GRID, **kwargs):
    def prog(comm):
        g = CartGrid(comm, grid)
        dt = DistTensor.from_global(g, x)
        t = dist_sthosvd(dt, **kwargs)
        tucker = t.to_tucker()
        return tucker.core, tuple(tucker.factors), t.ranks

    return prog


def _run_both(x, **kwargs):
    prog = _factors_prog(x, **kwargs)
    return {
        name: run_spmd(N_RANKS, prog, backend=name)
        for name in ("thread", "process")
    }


class TestBitIdenticalResults:
    def test_fixed_rank_sthosvd(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=11, noise=0.02)
        by_backend = _run_both(x, ranks=(3, 3, 2))
        for t_val, p_val in zip(
            by_backend["thread"].values, by_backend["process"].values
        ):
            t_core, t_factors, t_ranks = t_val
            p_core, p_factors, p_ranks = p_val
            assert t_ranks == p_ranks == (3, 3, 2)
            assert t_core.tobytes() == p_core.tobytes()
            for tf, pf in zip(t_factors, p_factors):
                assert tf.tobytes() == pf.tobytes()

    def test_tolerance_based_sthosvd(self):
        x = low_rank_tensor((8, 6, 4), (3, 2, 2), seed=12, noise=0.05)
        by_backend = _run_both(x, tol=0.1)
        t0 = by_backend["thread"][0]
        p0 = by_backend["process"][0]
        assert t0[2] == p0[2]  # same truncation decisions
        assert t0[0].tobytes() == p0[0].tobytes()

    def test_matches_reference(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=11, noise=0.02)
        ref = st_hosvd(x, ranks=(3, 3, 2)).reconstruct()
        by_backend = _run_both(x, ranks=(3, 3, 2))
        for res in by_backend.values():
            core, factors, _ = res[0]
            from repro.core import TuckerTensor

            recon = TuckerTensor(core=core, factors=factors).reconstruct()
            # Backends stay bit-identical to each other under every
            # dtype; agreement with the float64 reference loosens when
            # the suite runs narrow.
            np.testing.assert_allclose(recon, ref, atol=recon_atol())


def _eight_collectives(comm, x):
    """All eight collectives (uneven payloads), bit-comparable results."""
    comm.barrier()
    out = [comm.bcast({"a": x, "r": comm.rank} if comm.rank == 1 else None,
                      root=1)["a"].tobytes()]
    g = comm.gather(x[: comm.rank + 4] * comm.rank, root=2)
    out.append(None if g is None else [v.tobytes() for v in g])
    out.append([v.tobytes() for v in comm.allgather(x * (comm.rank + 1))])
    s = comm.scatter(
        [x[: 7 * (n + 1)] + n for n in range(comm.size)]
        if comm.rank == 0 else None,
        root=0,
    )
    out.append(s.tobytes())
    r = comm.reduce(x + comm.rank, op=lambda a, b: a + b, root=3)
    out.append(None if r is None else r.tobytes())
    out.append(comm.allreduce(x * 0.3).tobytes())
    out.append(
        comm.reduce_scatter_block(
            np.outer(np.arange(float(2 * comm.size)), x[:6]) + comm.rank
        ).tobytes()
    )
    return out


class TestAllCollectivesParity:
    """Every collective: same bits and charges on both backends, even
    under uneven payloads."""

    def test_results_and_ledgers_match(self):
        x = np.random.default_rng(21).standard_normal(64)
        results = {
            name: run_spmd(N_RANKS, _eight_collectives, x, backend=name)
            for name in ("thread", "process")
        }
        assert results["thread"].values == results["process"].values
        t, p = results["thread"].ledger, results["process"].ledger
        assert t.summary() == p.summary()
        for rank in range(N_RANKS):
            assert t.rank_costs(rank).time == p.rank_costs(rank).time
            assert t.rank_costs(rank).words_sent == p.rank_costs(rank).words_sent
            assert t.rank_costs(rank).messages == p.rank_costs(rank).messages


def _nonblocking_battery(comm, x):
    """Deferred exchanges and reductions, pipelined and with uneven
    payloads; returns bit-comparable results."""
    out = []
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    # Two isendrecv hops in flight at once (the dist_gram ring pattern).
    reqs = [
        comm.isendrecv(x[: 5 * (comm.rank + 1)] * i, dest=right, source=left,
                       tag=i)
        for i in (1, 2)
    ]
    out.append([r.wait().tobytes() for r in reqs])
    got = comm.isendrecv(
        {"r": comm.rank, "x": x[:9]}, dest=right, source=left, tag=7
    ).wait()
    out.append((got["r"], got["x"].tobytes()))
    # Pipelined non-blocking reductions, five deep.
    nb = [
        comm.ireduce(x[:6] * (comm.rank + 1) + i, op=SUM, root=i % comm.size)
        for i in range(3)
    ]
    nb.append(comm.ireduce(x * (comm.rank + 1), op=SUM, root=comm.size - 1))
    nb.append(
        comm.ireduce(
            np.outer(np.arange(float(2 * comm.size)), x[:7]) + comm.rank,
            op=SUM,
            root=1,
        )
    )
    for req in nb:
        value = req.wait()
        out.append(None if value is None else np.asarray(value).tobytes())
    return out


class TestNonblockingParity:
    """Deferred requests: same bits and charges on both backends."""

    def test_results_and_ledgers_match(self):
        x = np.random.default_rng(33).standard_normal(48)
        results = {
            name: run_spmd(N_RANKS, _nonblocking_battery, x, backend=name)
            for name in ("thread", "process")
        }
        assert results["thread"].values == results["process"].values
        t, p = results["thread"].ledger, results["process"].ledger
        assert t.summary() == p.summary()
        for rank in range(N_RANKS):
            assert t.rank_costs(rank).time == p.rank_costs(rank).time
            assert t.rank_costs(rank).words_sent == p.rank_costs(rank).words_sent
            assert t.rank_costs(rank).messages == p.rank_costs(rank).messages


class TestRetiredKnobsAreInert:
    """Each kernel runs one schedule.  An environment left over from an
    older release (the schedule, TSQR-tree and wire-width knobs) must not
    move a single bit of the factors, core or ledger on either backend."""

    @pytest.mark.parametrize("method", ["gram", "svd"])
    @pytest.mark.parametrize(
        "env_var, value",
        [
            ("REPRO_SPMD_OVERLAP", "0"),
            ("REPRO_TSQR_TREE", "butterfly"),
            ("REPRO_WIRE_COMPRESS", "1"),
        ],
    )
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stale_env_var_changes_nothing(
        self, backend, env_var, value, method, monkeypatch
    ):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=19, noise=0.03)
        prog = _factors_prog(x, ranks=(3, 3, 2), method=method)
        runs = []
        for setting in (None, value):
            # Fresh pool so process workers inherit the environment.
            shutdown_worker_pools()
            if setting is None:
                monkeypatch.delenv(env_var, raising=False)
            else:
                monkeypatch.setenv(env_var, setting)
            runs.append(run_spmd(N_RANKS, prog, backend=backend))
        shutdown_worker_pools()
        clean, stale = runs
        for c_val, s_val in zip(clean.values, stale.values):
            assert c_val[0].tobytes() == s_val[0].tobytes()  # core
            for f_c, f_s in zip(c_val[1], s_val[1]):
                assert f_c.tobytes() == f_s.tobytes()
            assert c_val[2] == s_val[2]  # ranks
        assert clean.ledger.summary() == stale.ledger.summary()
        for rank in range(N_RANKS):
            a, b = clean.ledger.rank_costs(rank), stale.ledger.rank_costs(rank)
            assert (a.time, a.words_sent, a.messages, a.flops) == (
                b.time, b.words_sent, b.messages, b.flops
            )


class TestTwoRankParity:
    """A tolerance-driven run on two ranks gives the same bits and ledger
    on both backends, by either factor method."""

    @pytest.mark.parametrize("method", ["gram", "svd"])
    def test_bits_and_ledgers_match(self, method):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=23, noise=0.03)
        prog = _factors_prog(x, grid=(1, 2, 1), tol=0.1, method=method)
        runs = {
            name: run_spmd(2, prog, backend=name)
            for name in ("thread", "process")
        }
        for t_val, p_val in zip(
            runs["thread"].values, runs["process"].values
        ):
            assert t_val[2] == p_val[2]  # ranks
            assert t_val[0].tobytes() == p_val[0].tobytes()  # core
            for tf, pf in zip(t_val[1], p_val[1]):
                assert tf.tobytes() == pf.tobytes()
        thread, process = runs["thread"].ledger, runs["process"].ledger
        assert thread.summary() == process.summary()
        for rank in range(2):
            a, b = thread.rank_costs(rank), process.rank_costs(rank)
            assert (a.time, a.words_sent, a.messages, a.flops) == (
                b.time, b.words_sent, b.messages, b.flops
            )


class TestIdenticalLedgers:
    def test_event_counts_and_modeled_time(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=11, noise=0.02)
        by_backend = _run_both(x, ranks=(3, 3, 2))
        thread = by_backend["thread"].ledger
        process = by_backend["process"].ledger
        assert thread.summary() == process.summary()
        assert thread.section_times() == process.section_times()
        for rank in range(N_RANKS):
            t_row = thread.rank_costs(rank)
            p_row = process.rank_costs(rank)
            assert t_row.messages == p_row.messages
            assert t_row.words_sent == p_row.words_sent
            assert t_row.flops == p_row.flops
            assert t_row.time == p_row.time
            assert dict(t_row.by_section) == dict(p_row.by_section)
