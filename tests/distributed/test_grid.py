"""Processor-grid selection tests (Sec. VIII-B heuristics)."""

import pytest

from repro.distributed import choose_grid
from repro.perfmodel import EDISON
from repro.util.validation import prod


class TestChooseGrid:
    def test_uses_all_processors(self):
        grid = choose_grid(24, (200, 200, 200, 200), ranks=(20,) * 4)
        assert prod(grid) == 24

    def test_prefers_p1_equal_one(self):
        # The paper's observation: the best grids put no processors in the
        # first (most expensive) mode.
        grid = choose_grid(24, (384, 384, 384, 384), ranks=(96,) * 4)
        assert grid[0] == 1

    def test_respects_rank_feasibility(self):
        # Grid extents must not exceed anticipated ranks.
        grid = choose_grid(8, (100, 100), ranks=(4, 100))
        assert grid[0] <= 4

    def test_default_rank_guess(self):
        grid = choose_grid(6, (60, 60, 60))
        assert prod(grid) == 6

    def test_single_processor(self):
        assert choose_grid(1, (10, 10)) == (1, 1)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="no feasible grid"):
            choose_grid(64, (2, 2), ranks=(2, 2))

    def test_rank_shape_mismatch(self):
        with pytest.raises(ValueError):
            choose_grid(4, (10, 10), ranks=(2,))

    def test_sixteen_ranks_go_to_the_last_mode(self):
        grid = choose_grid(16, (200, 200, 200, 200), ranks=(20,) * 4,
                           machine=EDISON)
        assert grid == (1, 1, 1, 16)

    def test_machine_parameter_accepted(self):
        grid = choose_grid(12, (48, 48, 48), ranks=(12, 12, 12), machine=EDISON)
        assert prod(grid) == 12


class TestToleranceDrivenGrid:
    """``ranks=None``: the grid a ``--tol`` run is launched on."""

    @pytest.mark.parametrize(
        "shape, grid",
        [
            ((36, 36, 36, 11, 20), (1, 1, 1, 1, 2)),
            ((20, 24, 16, 35, 16), (1, 1, 1, 2, 1)),
            ((96, 96, 33, 40), (1, 1, 1, 2)),
            ((24, 24, 16, 12), (1, 2, 1, 1)),
        ],
    )
    def test_benchmark_shapes_keep_their_grids(self, shape, grid):
        # The repo benchmark's tensors on two ranks: grids within the
        # 10x rank guess exist, so they are the ones chosen.
        assert choose_grid(2, shape) == grid

    @pytest.mark.parametrize("shape", [(12, 10, 8), (16, 16, 16)])
    @pytest.mark.parametrize("p", [2, 3, 4, 8])
    def test_small_modes_still_get_a_grid(self, shape, p):
        # Every mode is below 20, so the guess is rank 1 everywhere and no
        # grid fits it; dist_sthosvd floors threshold ranks at P_n, so any
        # grid that fits the tensor runs.
        grid = choose_grid(p, shape)
        assert prod(grid) == p
        assert all(pn <= s for pn, s in zip(grid, shape))

    def test_fixed_ranks_keep_the_strict_filter(self):
        with pytest.raises(ValueError, match="no feasible grid"):
            choose_grid(2, (12, 10, 8), ranks=(1, 1, 1))
