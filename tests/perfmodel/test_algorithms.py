"""Algorithm-level cost model tests (paper Sec. VI)."""

import pytest

from repro.perfmodel import (
    hooi_iteration_cost,
    sthosvd_cost,
    sthosvd_memory_bound,
)
from repro.perfmodel.machine import EDISON, UNIT, MachineSpec
from repro.util.validation import prod


class TestSthosvdCost:
    def test_one_step_per_kernel_per_mode(self):
        c = sthosvd_cost((8, 8, 8), (2, 2, 2), (1, 1, 1), UNIT)
        kernels = [k for k, _, _ in c.steps]
        assert kernels == ["gram", "evecs", "ttm"] * 3

    def test_flops_independent_of_grid(self):
        # The grid changes communication, never flops (Sec. VIII-B).
        a = sthosvd_cost((16, 16, 16), (4, 4, 4), (1, 1, 8), UNIT)
        b = sthosvd_cost((16, 16, 16), (4, 4, 4), (2, 2, 2), UNIT)
        assert a.flops * prod((1, 1, 8)) == pytest.approx(b.flops * 8)

    def test_working_tensor_shrinks(self):
        # The first Gram dominates: it sees the full tensor; later modes see
        # truncated ones (factor I/R smaller each step).
        c = sthosvd_cost((100, 100), (10, 10), (1, 1), UNIT)
        gram_steps = [s for s in c.steps if s[0] == "gram"]
        assert gram_steps[0][2].flops > 5 * gram_steps[1][2].flops

    def test_first_gram_vs_first_ttm_ratio(self):
        # Sec. VIII-B: the first Gram is more expensive than the first TTM
        # by a factor of ~ I1/R1 in flops.
        shape, ranks = (384,) * 4, (96,) * 4
        c = sthosvd_cost(shape, ranks, (1, 1, 16, 24), EDISON)
        first_gram = next(s[2] for s in c.steps if s[0] == "gram")
        first_ttm = next(s[2] for s in c.steps if s[0] == "ttm")
        assert first_gram.flops / first_ttm.flops == pytest.approx(
            shape[0] / ranks[0]
        )

    def test_mode_order_changes_cost(self):
        # On the calibrated machine (which models the skinny-GEMM penalty of
        # starting with the small mode), processing the highest-compression
        # mode first wins — the paper's Fig. 8b observation.  On an ideal
        # machine the pure flop count can prefer the small mode first.
        from repro.perfmodel import EDISON_CALIBRATED

        shape, ranks = (25, 250, 250, 250), (10, 10, 100, 100)
        natural = sthosvd_cost(shape, ranks, (2, 2, 2, 2), EDISON_CALIBRATED)
        best = sthosvd_cost(shape, ranks, (2, 2, 2, 2), EDISON_CALIBRATED,
                            mode_order=(1, 0, 2, 3))
        assert best.time < natural.time

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="permutation"):
            sthosvd_cost((8, 8), (2, 2), (1, 1), UNIT, mode_order=(0, 0))

    def test_rank_exceeds_dim(self):
        with pytest.raises(ValueError):
            sthosvd_cost((8, 8), (9, 2), (1, 1), UNIT)

    def test_rejects_mismatched_ranks(self):
        with pytest.raises(ValueError, match="differ in order"):
            sthosvd_cost((24, 16, 12), (6, 4), (2, 2, 1), UNIT)

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError, match="differ in order"):
            sthosvd_cost((24, 16, 12), (6, 4, 4), (2, 2), UNIT)

    def test_uniform_rescale_scales_time(self):
        # Every term is linear in alpha, beta and gamma: a machine k times
        # slower in all three predicts exactly k times the time.
        shape, ranks, grid = (24, 16, 12), (6, 4, 4), (2, 2, 1)
        slow = MachineSpec(
            alpha=3.7 * EDISON.alpha, beta=3.7 * EDISON.beta,
            gamma=3.7 * EDISON.gamma,
        )
        base = sthosvd_cost(shape, ranks, grid, EDISON)
        scaled = sthosvd_cost(shape, ranks, grid, slow)
        assert scaled.time == pytest.approx(3.7 * base.time)
        assert scaled.flops == base.flops


class TestHooiIterationCost:
    def test_ttm_count_per_iteration(self):
        # N(N-1) TTMs in the inner loops plus one final core TTM.
        n = 4
        c = hooi_iteration_cost((16,) * n, (4,) * n, (1,) * n, UNIT)
        ttm_steps = [s for s in c.steps if s[0] == "ttm"]
        assert len(ttm_steps) == n * (n - 1) + 1

    def test_gram_and_evecs_once_per_mode(self):
        c = hooi_iteration_cost((16,) * 3, (4,) * 3, (1,) * 3, UNIT)
        assert len([s for s in c.steps if s[0] == "gram"]) == 3
        assert len([s for s in c.steps if s[0] == "evecs"]) == 3

    def test_ttm_order_option(self):
        inc = hooi_iteration_cost((8, 16, 32), (2, 2, 2), (1, 1, 1), UNIT)
        dec = hooi_iteration_cost(
            (8, 16, 32), (2, 2, 2), (1, 1, 1), UNIT, ttm_order="decreasing"
        )
        # Different chain orders give different costs in general.
        assert inc.time != dec.time

    def test_unknown_ttm_order(self):
        with pytest.raises(ValueError):
            hooi_iteration_cost((8, 8), (2, 2), (1, 1), UNIT, ttm_order="random")

    def test_algorithm_cost_addition(self):
        a = sthosvd_cost((8, 8), (2, 2), (1, 1), UNIT)
        b = hooi_iteration_cost((8, 8), (2, 2), (1, 1), UNIT)
        combined = a + b
        assert combined.time == pytest.approx(a.time + b.time)
        assert len(combined.steps) == len(a.steps) + len(b.steps)


class TestMemoryBound:
    def test_eq2_formula(self):
        # 2 I/P + sum Rn In / Pn + max In^2 + max Rn In.
        shape, ranks, grid = (8, 10), (2, 3), (2, 1)
        expected = (
            2 * 80 / 2 + (2 * 8 / 2 + 3 * 10 / 1) + 100 + 30
        )
        assert sthosvd_memory_bound(shape, ranks, grid) == pytest.approx(expected)

    def test_paper_claim_three_times_data(self):
        # "given adequate memory, e.g., three times the size of the data":
        # for typical compression the bound is < 3 I/P.
        shape, ranks, grid = (200,) * 4, (20,) * 4, (1, 1, 4, 6)
        bound = sthosvd_memory_bound(shape, ranks, grid)
        data = prod(shape) / prod(grid)
        assert bound < 3 * data
