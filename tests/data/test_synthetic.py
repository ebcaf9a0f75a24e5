"""Performance-experiment problem-definition tests."""

import pytest

from repro.data import (
    fig8a_problem,
    fig8b_problem,
)
from repro.util.validation import prod


class TestFig8a:
    def test_paper_scale(self):
        p = fig8a_problem()
        assert p.shape == (384,) * 4
        assert p.ranks == (96,) * 4
        assert p.n_procs == 384
        assert len(p.grids) == 11
        for g in p.grids:
            assert prod(g) == 384

    def test_scaled_down(self):
        p = fig8a_problem(scale=4)
        assert p.shape == (96,) * 4
        assert p.ranks == (24,) * 4

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            fig8a_problem(scale=5)


class TestFig8b:
    def test_paper_scale(self):
        p = fig8b_problem()
        assert p.shape == (25, 250, 250, 250)
        assert p.ranks == (10, 10, 100, 100)

    def test_grids(self):
        assert fig8b_problem().grids == ((2, 2, 2, 2),)

    def test_scaled(self):
        p = fig8b_problem(scale=5)
        assert p.shape[1:] == (50, 50, 50)

