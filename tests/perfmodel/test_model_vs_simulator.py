"""Cross-validation: analytic cost model vs the simulated MPI's ledger.

The point of keeping both is that the model (paper Secs. V-VI) can predict
paper-scale runs the simulator cannot execute, while the simulator measures
actual byte/flop traffic of real (small) executions.  These tests pin the
two together: for evenly divisible problems on the ideal EDISON machine,
the per-kernel flop counts agree exactly and the modeled times agree to
within the slack the model's idealizations allow.
"""

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_gram, dist_sthosvd, dist_ttm
from repro.mpi import CartGrid
from repro.perfmodel import EDISON, gram_cost, sthosvd_cost, ttm_cost
from repro.tensor import low_rank_tensor
from repro.util.validation import prod
from tests.conftest import spmd


SHAPE = (8, 8, 8)
RANKS = (4, 4, 4)
GRID = (2, 2, 2)
P = prod(GRID)


def _x():
    return low_rank_tensor(SHAPE, RANKS, seed=3, noise=0.05)


class TestTtmAgreement:
    def test_flops_match_model_exactly(self):
        x = _x()
        mode, k = 0, 4
        model = ttm_cost(SHAPE, mode, k, GRID, EDISON)

        def prog(comm):
            g = CartGrid(comm, GRID)
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(0).standard_normal((k, SHAPE[mode]))
            sl = dt.local_slices[mode]
            dist_ttm(dt, v[:, sl].copy(), mode, k, strategy="blocked")
            return None

        res = spmd(P, prog, machine=EDISON)
        # Model flops are per processor.
        measured = res.ledger.total_flops() / P
        assert measured == pytest.approx(model.flops)

    def test_words_within_model_bound(self):
        # The naive collective implementations move at least the modeled
        # traffic; tree algorithms would move exactly the model amount.
        x = _x()
        model = ttm_cost(SHAPE, 0, 4, GRID, EDISON)

        def prog(comm):
            g = CartGrid(comm, GRID)
            dt = DistTensor.from_global(g, x)
            v = np.random.default_rng(0).standard_normal((4, 8))
            sl = dt.local_slices[0]
            dist_ttm(dt, v[:, sl].copy(), 0, 4, strategy="blocked")
            return None

        res = spmd(P, prog, machine=EDISON)
        assert res.ledger.total_words() >= model.words * P * 0.5


class TestGramAgreement:
    def test_flops_match_model_exactly(self):
        x = _x()
        mode = 1
        model = gram_cost(SHAPE, mode, GRID, EDISON)

        def prog(comm):
            g = CartGrid(comm, GRID)
            dt = DistTensor.from_global(g, x)
            dist_gram(dt, mode)
            return None

        res = spmd(P, prog, machine=EDISON)
        measured = res.ledger.total_flops() / P
        assert measured == pytest.approx(model.flops)

    def test_symmetric_fast_path_halves_flops(self):
        x = _x()
        grid = (1, 4, 2)

        def prog(comm):
            g = CartGrid(comm, grid)
            dt = DistTensor.from_global(g, x)
            dist_gram(dt, 0)
            return None

        res = spmd(8, prog, machine=EDISON)
        full = gram_cost(SHAPE, 0, grid, EDISON).flops
        measured = res.ledger.total_flops() / 8
        # P0 == 1 exploits symmetry: n(n+1)k instead of 2 n^2 k.
        assert measured == pytest.approx(full * (SHAPE[0] + 1) / (2 * SHAPE[0]))


class TestSthosvdAgreement:
    def test_total_flops_match(self):
        x = _x()
        model = sthosvd_cost(SHAPE, RANKS, GRID, EDISON)

        def prog(comm):
            g = CartGrid(comm, GRID)
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, ranks=RANKS, ttm_strategy="blocked")
            return None

        res = spmd(P, prog, machine=EDISON)
        measured = res.ledger.total_flops() / P
        # The model counts gram/evecs/ttm, and so does the driver: ||X||^2
        # comes from the first mode's spectrum, not a pass of its own.
        assert measured == model.flops

    def test_modeled_time_same_order_of_magnitude(self):
        # Times cannot match exactly (naive vs tree collectives, uneven
        # charging), but must agree within a small factor for the model to
        # be a usable predictor.
        x = _x()
        model = sthosvd_cost(SHAPE, RANKS, GRID, EDISON)

        def prog(comm):
            g = CartGrid(comm, GRID)
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, ranks=RANKS, ttm_strategy="blocked")
            return None

        res = spmd(P, prog, machine=EDISON)
        measured = res.ledger.modeled_time()
        assert model.time / 5 < measured < model.time * 5

    def test_per_kernel_breakdown_ranks_consistently(self):
        # Gram must dominate TTM in both the model and the measurement for
        # a problem where I/R = 4 (paper Sec. VIII-B reasoning).
        shape, ranks, grid = (16, 16, 16), (4, 4, 4), (2, 2, 2)
        x = low_rank_tensor(shape, ranks, seed=4, noise=0.05)
        model = sthosvd_cost(shape, ranks, grid, EDISON)

        def prog(comm):
            g = CartGrid(comm, grid)
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, ranks=ranks, ttm_strategy="blocked")
            return None

        res = spmd(8, prog, machine=EDISON)
        sections = res.ledger.section_times()
        assert model.kernel_time("gram") > model.kernel_time("ttm")
        assert sections["gram"] > sections["ttm"]
