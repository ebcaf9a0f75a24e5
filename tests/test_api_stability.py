"""Public API stability: the documented surface must exist and stay typed.

Downstream code imports these names; renames are breaking changes and must
show up as test failures, not user bug reports.
"""

import importlib

import pytest

PUBLIC_API = {
    "repro": [
        "TuckerTensor", "SthosvdResult", "HooiResult",
        "sthosvd", "hooi", "hosvd",
        "normalized_rms", "max_abs_error", "compression_ratio",
        "RuntimeConfig", "__version__",
    ],
    "repro.config": [
        "RuntimeConfig", "ConfigField", "CONFIG_FIELDS",
        "resolve_config", "env_default", "default_for",
        "set_active_config", "active_config",
    ],
    "repro.core": [
        "TuckerTensor", "sthosvd", "hooi", "hosvd",
        "StreamingTucker", "validate_tucker", "ValidationReport",
        "greedy_flops_order", "greedy_ratio_order",
        "modewise_error_curves", "error_bound",
    ],
    "repro.tensor": [
        "Tensor", "unfold", "fold", "ttm", "multi_ttm",
        "gram", "eigendecompose", "leading_eigenvectors",
        "rank_from_tolerance", "low_rank_tensor", "random_factor",
        "random_tensor",
    ],
    "repro.mpi": [
        "run_spmd", "Communicator", "CartGrid", "CostLedger",
        "SUM", "MAX", "MIN", "PROD",
        "MpiError", "DeadlockError", "SpmdError", "CommunicatorError",
        "BufferMismatchError",
    ],
    "repro.distributed": [
        "DistTensor", "DistTucker", "dist_ttm", "dist_gram", "dist_evecs",
        "dist_sthosvd", "dist_hooi", "dist_mode_svd", "tsqr_r",
        "choose_grid", "block_range", "DistStreamingTucker",
    ],
    "repro.perfmodel": [
        "MachineSpec", "EDISON", "EDISON_CALIBRATED", "UNIT",
        "send_recv_cost", "allgather_cost", "reduce_cost", "allreduce_cost",
        "KernelCost", "ttm_cost", "gram_cost", "evecs_cost",
        "AlgorithmCost", "sthosvd_cost", "hooi_cost", "hooi_iteration_cost",
        "sthosvd_memory_bound", "strong_scaling_curve", "weak_scaling_curve",
        "grid_sweep", "mode_order_sweep",
    ],
    "repro.data": [
        "hcci_proxy", "tjlr_proxy", "sp_proxy", "load_dataset", "DATASETS",
        "center_and_scale", "invert_scaling", "multiway_field",
        "decay_profile", "dct_basis",
        "fig8a_problem", "fig8b_problem", "strong_scaling_problem",
        "weak_scaling_problem",
    ],
    "repro.baselines": [
        "PcaCompressor", "Tucker1Compressor",
    ],
    "repro.resources": [
        "ResourceGovernor", "ResourceReport", "DegradationEvent",
        "governor", "is_exhaustion", "EXHAUSTED_ERRNOS",
        "check_deadline", "remaining_deadline", "set_active_deadline",
        "active_deadline",
    ],
    "repro.io": ["save_tucker", "load_tucker", "stored_bytes"],
    "repro.report": ["EXPERIMENTS", "generate_all", "write_csv"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in PUBLIC_API[module_name] if not hasattr(module, n)]
    assert not missing, f"{module_name} lost public names: {missing}"


def test_py_typed_marker_exists():
    import repro

    import os

    assert os.path.exists(
        os.path.join(os.path.dirname(repro.__file__), "py.typed")
    )


def test_all_lists_are_accurate():
    for module_name in PUBLIC_API:
        module = importlib.import_module(module_name)
        declared = getattr(module, "__all__", None)
        if declared is None:
            continue
        for name in declared:
            assert hasattr(module, name), (
                f"{module_name}.__all__ lists missing name {name}"
            )


# Each kernel runs one schedule (pipelined ring, posted-ireduce blocked
# TTM, binary TSQR tree, full-width wire), and the drivers take their
# dtype from ``compute_dtype=`` alone (no execution plan).  The keywords
# that once chose otherwise must stay gone: an old call site should fail
# loudly, not be silently accepted.
RETIRED_KEYWORDS = {
    "overlap", "pipelined", "tree", "tsqr_tree", "compress_wire",
    "exploit_symmetry", "plan", "config",
}
ONE_SCHEDULE_CALLABLES = [
    ("repro.distributed", "dist_gram"),
    ("repro.distributed", "dist_ttm"),
    ("repro.distributed", "dist_mode_svd"),
    ("repro.distributed", "tsqr_r"),
    ("repro.distributed", "dist_sthosvd"),
    ("repro.distributed", "dist_hooi"),
    ("repro.distributed", "DistStreamingTucker"),
    ("repro.distributed.sthosvd", "project_modes"),
    ("repro.distributed.ring", "ring_exchange"),
    ("repro.core", "sthosvd"),
    ("repro.core", "hooi"),
    ("repro.core", "StreamingTucker"),
]


@pytest.mark.parametrize(
    "module_name, name", ONE_SCHEDULE_CALLABLES,
    ids=[f"{m}.{n}" for m, n in ONE_SCHEDULE_CALLABLES],
)
def test_no_schedule_keywords(module_name, name):
    import inspect

    obj = getattr(importlib.import_module(module_name), name)
    params = set(inspect.signature(obj).parameters)
    assert not params & RETIRED_KEYWORDS, (
        f"{module_name}.{name} takes retired keyword(s) "
        f"{sorted(params & RETIRED_KEYWORDS)}"
    )


# A full /dev/shm is the only shm limit: the in-process budget, admission
# control and the resource board are gone, and so are their names.  So is
# the execution-plan layer.
RETIRED_NAMES = {
    "repro.config": ["PLAN_ENV_VAR", "resolve_plan"],
    "repro.perfmodel": ["ExecutionPlan", "plan_sthosvd", "refine_machine"],
    "repro.mpi": ["AdmissionError", "BudgetExceededError", "estimate_world_shm"],
    "repro.mpi.errors": ["AdmissionError"],
    "repro.resources": [
        "AdmissionController", "admission_controller", "ADMISSION_WAIT",
        "estimate_world_shm", "BudgetExceededError", "ResourceBoard",
    ],
}


@pytest.mark.parametrize("module_name", sorted(RETIRED_NAMES))
def test_retired_names_stay_gone(module_name):
    module = importlib.import_module(module_name)
    present = [n for n in RETIRED_NAMES[module_name] if hasattr(module, n)]
    assert not present, f"{module_name} still exports {present}"


def test_run_spmd_takes_no_shm_estimate():
    import inspect

    from repro.mpi import run_spmd

    assert "shm_estimate" not in inspect.signature(run_spmd).parameters


# The static SPMD linter is retired: the runtime sanitizer, ruff and the
# source-rule tests carry its checks (tests/analysis).
def test_linter_module_stays_gone():
    import importlib.util

    assert importlib.util.find_spec("repro.analysis.lint") is None


def test_no_linter_console_script():
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "repro-lint" not in scripts
