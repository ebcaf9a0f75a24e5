"""Autotuner golden-decision tests: plan_sthosvd and refine_machine.

The planner is a pure function of (shape, ranks, grid, machine), so its
decisions are pinned here as goldens: if a model change flips one, that
is a deliberate retune and the test documents it.
"""

import pytest

from repro.config import RuntimeConfig
from repro.perfmodel import (
    EDISON,
    ExecutionPlan,
    plan_sthosvd,
    refine_machine,
    sthosvd_cost,
)

# A small ST-HOSVD case: (24,16,12) -> (6,4,4) on a 2x2x1 grid.
BENCH_SHAPE = (24, 16, 12)
BENCH_RANKS = (6, 4, 4)
BENCH_GRID = (2, 2, 1)
LARGE_SHAPE = (200, 200, 200, 200)


class TestGoldenDecisions:
    def test_fixed_ranks_stay_float64(self):
        plan = plan_sthosvd(
            LARGE_SHAPE, ranks=(20,) * 4, n_ranks=16, machine=EDISON
        )
        assert plan.config.compute_dtype == "float64"
        assert "fixed-rank" in plan.decisions["compute_dtype"]
        assert plan.grid == (1, 1, 1, 16)

    def test_tight_tolerance_stays_float64(self):
        plan = plan_sthosvd(LARGE_SHAPE, tol=1e-5, n_ranks=16, machine=EDISON)
        assert plan.config.compute_dtype == "float64"
        assert "noise floor" in plan.decisions["compute_dtype"]

    def test_small_traffic_stays_float64(self):
        plan = plan_sthosvd(
            BENCH_SHAPE, tol=1e-2, grid=BENCH_GRID, machine=EDISON
        )
        assert plan.config.compute_dtype == "float64"
        assert "word" in plan.decisions["compute_dtype"]

    def test_loose_tolerance_on_heavy_traffic_picks_mixed(self):
        plan = plan_sthosvd(LARGE_SHAPE, tol=1e-2, n_ranks=16, machine=EDISON)
        assert plan.config.compute_dtype == "mixed"

    def test_test_sized_plans_are_the_default_config(self):
        # Below the traffic floor the plan changes nothing: plan="auto"
        # on a test tensor runs exactly RuntimeConfig().
        for kwargs in ({"ranks": BENCH_RANKS}, {"tol": 1e-2}, {"tol": 1e-6}):
            plan = plan_sthosvd(
                BENCH_SHAPE, grid=BENCH_GRID, machine=EDISON, **kwargs
            )
            assert plan.config == RuntimeConfig()

    def test_plan_decides_only_the_compute_dtype(self):
        plan = plan_sthosvd(
            (8, 8, 4),
            ranks=(2, 2, 2),
            grid=(1, 1, 1),
            machine=EDISON,
            mode_order=(2, 0, 1),
        )
        assert set(plan.decisions) == {"compute_dtype"}
        for retired in ("ttm_batch_lead", "overlap", "tsqr_tree",
                        "compress_wire"):
            assert not hasattr(plan.config, retired)


class TestPlanMechanics:
    def test_returns_execution_plan_with_predicted_cost(self):
        plan = plan_sthosvd(
            BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID, machine=EDISON
        )
        assert isinstance(plan, ExecutionPlan)
        expected = sthosvd_cost(BENCH_SHAPE, BENCH_RANKS, BENCH_GRID, EDISON)
        assert plan.predicted.time == pytest.approx(expected.time)

    def test_base_config_knobs_survive(self):
        base = RuntimeConfig(backend="process", sanitize=1, deadline=30.0)
        plan = plan_sthosvd(
            BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID,
            machine=EDISON, base=base,
        )
        assert plan.config.backend == "process"
        assert plan.config.sanitize == 1
        assert plan.config.deadline == 30.0

    def test_deterministic(self):
        a = plan_sthosvd(BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID)
        b = plan_sthosvd(BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID)
        assert a.config == b.config
        assert a.decisions == b.decisions

    def test_describe_mentions_every_decision(self):
        plan = plan_sthosvd(
            BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID, machine=EDISON
        )
        text = plan.describe()
        assert "grid: 2x2x1" in text
        assert "compute_dtype" in text
        assert "predicted time" in text

    def test_rank_surrogate_with_tol(self):
        plan = plan_sthosvd(
            BENCH_SHAPE, tol=1e-2, grid=BENCH_GRID, machine=EDISON
        )
        assert isinstance(plan.config, RuntimeConfig)

    def test_config_is_json_replayable(self):
        plan = plan_sthosvd(BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID)
        assert RuntimeConfig.from_json(plan.config.to_json()) == plan.config


class TestValidation:
    def test_rejects_both_tol_and_ranks(self):
        with pytest.raises(ValueError, match="at most one"):
            plan_sthosvd(BENCH_SHAPE, ranks=BENCH_RANKS, tol=1e-2, grid=BENCH_GRID)

    def test_requires_exactly_one_of_n_ranks_or_grid(self):
        with pytest.raises(ValueError, match="exactly one"):
            plan_sthosvd(BENCH_SHAPE, ranks=BENCH_RANKS)
        with pytest.raises(ValueError, match="exactly one"):
            plan_sthosvd(
                BENCH_SHAPE, ranks=BENCH_RANKS, n_ranks=4, grid=BENCH_GRID
            )

    def test_rejects_mismatched_ranks(self):
        with pytest.raises(ValueError, match="ranks"):
            plan_sthosvd(BENCH_SHAPE, ranks=(6, 4), grid=BENCH_GRID)

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError, match="grid"):
            plan_sthosvd(BENCH_SHAPE, ranks=BENCH_RANKS, grid=(2, 2))

    def test_rejects_bad_mode_order(self):
        with pytest.raises(ValueError, match="permutation"):
            plan_sthosvd(
                BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID,
                mode_order=(0, 0, 1),
            )


class TestRefineMachine:
    def test_scales_all_constants_uniformly(self):
        refined = refine_machine(EDISON, modeled_seconds=1.0, measured_seconds=2.0)
        assert refined.alpha == pytest.approx(2 * EDISON.alpha)
        assert refined.beta == pytest.approx(2 * EDISON.beta)
        assert refined.gamma == pytest.approx(2 * EDISON.gamma)
        assert "refined" in refined.name

    def test_refined_machine_preserves_decisions(self):
        # A uniform rescale preserves every ratio the planner compares,
        # so the plan must not change.
        refined = refine_machine(EDISON, 1.0, 3.7)
        a = plan_sthosvd(
            BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID, machine=EDISON
        )
        b = plan_sthosvd(
            BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID, machine=refined
        )
        assert a.config == b.config

    def test_prediction_matches_measurement_after_refinement(self):
        plan = plan_sthosvd(
            BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID, machine=EDISON
        )
        measured = 10.0
        refined = refine_machine(EDISON, plan.predicted.time, measured)
        replanned = plan_sthosvd(
            BENCH_SHAPE, ranks=BENCH_RANKS, grid=BENCH_GRID, machine=refined
        )
        assert replanned.predicted.time == pytest.approx(measured)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match="modeled"):
            refine_machine(EDISON, 0.0, 1.0)
        with pytest.raises(ValueError, match="measured"):
            refine_machine(EDISON, 1.0, -1.0)
