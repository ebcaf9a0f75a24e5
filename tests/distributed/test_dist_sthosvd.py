"""Parallel ST-HOSVD driver tests against the textbook reference."""

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, SpmdError
from repro.tensor import low_rank_tensor
from tests.conftest import recon_atol, spmd, suite_compute_dtype
from tests.reference import st_hosvd


def _run(x, grid_dims, **kwargs):
    def prog(comm):
        g = CartGrid(comm, grid_dims)
        dt = DistTensor.from_global(g, x)
        t = dist_sthosvd(dt, **kwargs)
        return t.to_tucker(), t.error_estimate(), t.ranks

    n = int(np.prod(grid_dims))
    return spmd(n, prog)


class TestAgreementWithReference:
    @pytest.mark.parametrize(
        "grid_dims", [(2, 3, 2), (1, 1, 1), (1, 3, 2), (2, 2, 1)]
    )
    def test_fixed_ranks_reconstruction_matches(self, grid_dims):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=1, noise=0.02)
        res = _run(x, grid_dims, ranks=(3, 3, 2))
        ref = st_hosvd(x, ranks=(3, 3, 2))
        for tucker, _, ranks in res:
            assert ranks == (3, 3, 2)
            np.testing.assert_allclose(
                tucker.reconstruct(),
                ref.reconstruct(),
                atol=recon_atol(),
            )

    def test_tolerance_based_ranks_match(self):
        x = low_rank_tensor((8, 6, 4), (3, 2, 2), seed=2, noise=0.05)
        ref = st_hosvd(x, tol=0.1)
        res = _run(x, (2, 3, 2), tol=0.1)
        for tucker, est, ranks in res:
            if suite_compute_dtype() == "float64":
                assert ranks == ref.ranks
                assert est == pytest.approx(ref.error_estimate, rel=1e-6)
            else:
                # A narrowed sweep truncates against the tighter share of
                # the split budget (mixed) or float32-noisy tails, so it
                # may keep more directions — never fewer — and must still
                # meet the requested tolerance.
                assert all(r >= rs for r, rs in zip(ranks, ref.ranks))
                assert est <= 0.1

    def test_mode_order_respected(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=3, noise=0.02)
        order = (2, 0, 1)
        ref = st_hosvd(x, ranks=(3, 3, 2), mode_order=order)

        def prog(comm):
            g = CartGrid(comm, (2, 1, 2))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2), mode_order=order)
            return t.to_tucker(), t.mode_order

        for tucker, mode_order in spmd(4, prog):
            assert mode_order == order
            np.testing.assert_allclose(
                tucker.reconstruct(), ref.reconstruct(),
                atol=recon_atol(),
            )

    def test_uneven_distribution(self):
        x = low_rank_tensor((7, 5, 6), (3, 2, 3), seed=4, noise=0.02)
        ref = st_hosvd(x, ranks=(3, 2, 3))
        res = _run(x, (3, 1, 2), ranks=(3, 2, 3))
        for tucker, _, _ in res:
            np.testing.assert_allclose(
                tucker.reconstruct(), ref.reconstruct(),
                atol=recon_atol(),
            )

    def test_4way(self):
        x = low_rank_tensor((6, 4, 4, 5), (2, 2, 2, 2), seed=5, noise=0.02)
        ref = st_hosvd(x, ranks=(2, 2, 2, 2))
        res = _run(x, (2, 1, 2, 1), ranks=(2, 2, 2, 2))
        for tucker, _, _ in res:
            np.testing.assert_allclose(
                tucker.reconstruct(), ref.reconstruct(),
                atol=recon_atol(),
            )

    @pytest.mark.parametrize("strategy", ["blocked", "reduce_scatter"])
    def test_ttm_strategies_equivalent(self, strategy):
        x = low_rank_tensor((8, 6, 4), (4, 2, 2), seed=6, noise=0.02)
        res = _run(x, (2, 2, 1), ranks=(4, 2, 2), ttm_strategy=strategy)
        ref = st_hosvd(x, ranks=(4, 2, 2))
        for tucker, _, _ in res:
            np.testing.assert_allclose(
                tucker.reconstruct(), ref.reconstruct(),
                atol=recon_atol(),
            )


class TestDistTuckerObject:
    def test_reconstruct_distributed_matches_gathered(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=7, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2))
            dist_rec = t.reconstruct_distributed().to_global()
            gathered_rec = t.to_tucker().reconstruct()
            return np.allclose(dist_rec, gathered_rec, atol=1e-9)

        assert all(spmd(6, prog).values)

    @pytest.mark.parametrize("grid_dims", [(2, 3, 1), (1, 2, 2), (2, 1, 2)])
    def test_reconstruct_distributed_in_chain_order(self, grid_dims):
        # Every rank derives the same flop-minimal order from the global
        # extents: the result is the sequential reconstruction to rounding,
        # and every rank is charged the same words and messages (flops
        # follow the local block, uneven where P_n does not divide R_n).
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=10, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, grid_dims)
            t = dist_sthosvd(DistTensor.from_global(g, x), ranks=(4, 3, 2))
            row = comm.ledger.rank_costs(comm.world_rank)  # live counters
            before = (row.words_sent, row.messages)
            rec = t.reconstruct_distributed()
            spent = (row.words_sent - before[0], row.messages - before[1])
            return rec.to_global(), t.to_tucker().reconstruct(), spent

        res = spmd(int(np.prod(grid_dims)), prog)
        spent = {r[2] for r in res.values}
        assert len(spent) == 1 and min(next(iter(spent))) > 0
        for dist_rec, seq_rec, _ in res.values:
            np.testing.assert_allclose(dist_rec, seq_rec, rtol=0, atol=1e-12)

    def test_shape_and_compression(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=8, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2))
            return t.shape, t.compression_ratio

        from repro.core import compression_ratio

        for shape, ratio in spmd(6, prog):
            assert shape == (8, 6, 4)
            assert ratio == pytest.approx(compression_ratio((8, 6, 4), (3, 3, 2)))

    def test_factor_global_assembly(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=9, noise=0.02)

        # float32/mixed factors are orthonormal to single precision only.
        orth_atol = 1e-9 if suite_compute_dtype() == "float64" else 1e-6

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2))
            u0 = t.factor_global(0)
            return u0.shape, np.allclose(u0.T @ u0, np.eye(3), atol=orth_atol)

        for shape, orth in spmd(6, prog):
            assert shape == (8, 3)
            assert orth


class TestValidation:
    def test_requires_exactly_one_selector(self):
        x = low_rank_tensor((6, 4), (2, 2), seed=0)
        with pytest.raises(SpmdError, match="exactly one"):
            _run(x, (2, 1))

    def test_rank_below_grid_extent(self):
        x = low_rank_tensor((8, 4), (2, 2), seed=0)
        with pytest.raises(SpmdError, match="smaller than grid extent"):
            _run(x, (4, 1), ranks=(2, 2))

    def test_bad_mode_order(self):
        x = low_rank_tensor((6, 4), (2, 2), seed=0)
        with pytest.raises(SpmdError, match="permutation"):
            _run(x, (2, 1), ranks=(2, 2), mode_order=(1, 1))


class TestLedgerSections:
    def test_kernel_sections_populated(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=10, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, ranks=(3, 3, 2))
            return None

        res = spmd(6, prog)
        sections = res.ledger.section_times()
        assert {"gram", "evecs", "ttm"} <= set(sections)
        assert all(v > 0 for k, v in sections.items() if k != "other")
