"""Kernel-cost formula tests (paper Sec. V)."""

import math

import pytest

from repro.perfmodel import (
    KernelCost,
    evecs_cost,
    gram_cost,
    ttm_cost,
)
from repro.perfmodel.machine import UNIT


class TestKernelCost:
    def test_time_is_sum_of_components(self):
        c = KernelCost(flop_time=1, bw_time=2, lat_time=3)
        assert c.time == 6

    def test_addition_accumulates(self):
        a = KernelCost(flop_time=1, flops=10, memory_words=100)
        b = KernelCost(flop_time=2, flops=20, memory_words=50)
        c = a + b
        assert c.flop_time == 3
        assert c.flops == 30
        assert c.memory_words == 100  # max, not sum


class TestTtmCost:
    def test_flops_formula(self):
        # 2 J K / P per processor.
        c = ttm_cost((8, 8, 8), 0, 4, (2, 2, 2), UNIT)
        assert c.flops == pytest.approx(2 * 512 * 4 / 8)

    def test_no_comm_when_pn_one(self):
        c = ttm_cost((8, 8), 0, 4, (1, 4), UNIT)
        assert c.bw_time == 0
        assert c.lat_time == 0

    def test_bandwidth_formula(self):
        # beta (Pn - 1) Jhat K / P with unit beta.
        c = ttm_cost((8, 8), 0, 4, (4, 2), UNIT)
        assert c.bw_time == pytest.approx((4 - 1) * 8 * 4 / 8)

    def test_latency_formula(self):
        c = ttm_cost((8, 8), 0, 4, (4, 1), UNIT)
        assert c.lat_time == pytest.approx(4 * math.log2(4))

    def test_memory_matches_m_ttm(self):
        # M_TTM = J/P + J_n K / P_n + 2 Jhat K / P: J = 64, J_n = Jhat = 8,
        # K = 4, P = 4, P_n = 2.
        assert ttm_cost((8, 8), 0, 4, (2, 2), UNIT).memory_words == pytest.approx(
            64 / 4 + 8 * 4 / 2 + 2 * 8 * 4 / 4
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ttm_cost((8, 8), 0, 0, (2, 2), UNIT)
        with pytest.raises(ValueError):
            ttm_cost((8, 8), 0, 4, (2,), UNIT)


class TestGramCost:
    def test_flops_formula(self):
        # 2 Jn J / P.
        c = gram_cost((8, 8, 8), 1, (2, 2, 2), UNIT)
        assert c.flops == pytest.approx(2 * 8 * 512 / 8)

    def test_ring_cost(self):
        # 2 (Pn-1) (alpha + beta J/P): ring send+recv per iteration.
        c = gram_cost((8, 8), 0, (4, 1), UNIT)
        ring = 2 * 3 * (1 + 64 / 4)
        # all-reduce over Phat=1 is free.
        assert c.bw_time + c.lat_time == pytest.approx(ring)

    def test_allreduce_cost_when_pn_one(self):
        # Only the all-reduce across P procs: 2 alpha log P + 2 beta (P-1) Jn^2 / P.
        c = gram_cost((8, 8), 0, (1, 4), UNIT)
        expected = 2 * math.log2(4) + 2 * 3 * 64 / 4
        assert c.bw_time + c.lat_time == pytest.approx(expected)

    def test_memory_matches_m_gram(self):
        # M_GRAM = 2 J/P + 2 J_n^2 / P_n: J = 64, J_n = 8, P = 4, P_n = 2.
        assert gram_cost((8, 8), 0, (2, 2), UNIT).memory_words == pytest.approx(
            2 * 64 / 4 + 2 * 8 * 8 / 2
        )


class TestEvecsCost:
    def test_flops_are_paper_constant(self):
        c = evecs_cost(6, 3, 2, UNIT)
        assert c.flop_time == pytest.approx(10 / 3 * 216)

    def test_allgather_term(self):
        c = evecs_cost(8, 4, 4, UNIT)
        assert c.lat_time == pytest.approx(math.log2(4))
        assert c.bw_time == pytest.approx(3 / 4 * 64)

    def test_no_comm_single_proc(self):
        c = evecs_cost(8, 4, 1, UNIT)
        assert c.bw_time == 0 and c.lat_time == 0

    def test_memory(self):
        # M_EIG = I_n^2 / P_n + I_n^2 + I_n R + I_n R / P_n: I_n = 8, R = 4,
        # P_n = 2.
        assert evecs_cost(8, 4, 2, UNIT).memory_words == pytest.approx(
            64 / 2 + 64 + 8 * 4 + 8 * 4 / 2
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            evecs_cost(0, 1, 1, UNIT)
