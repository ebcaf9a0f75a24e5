"""Public API stability: the documented surface must exist and stay typed.

Downstream code imports these names; renames are breaking changes and must
show up as test failures, not user bug reports.
"""

import importlib

import pytest

from tests.conftest import resolve_dotted

PUBLIC_API = {
    "repro": [
        "TuckerTensor", "SthosvdResult", "HooiResult",
        "sthosvd", "hooi",
        "normalized_rms", "max_abs_error", "compression_ratio",
        "RuntimeConfig", "__version__",
    ],
    "repro.config": [
        "RuntimeConfig", "ConfigField", "CONFIG_FIELDS",
        "resolve_config", "env_default", "default_for",
        "set_active_config",
    ],
    "repro.core": [
        "TuckerTensor", "sthosvd", "hooi",
        "validate_tucker", "ValidationReport",
        "greedy_flops_order", "greedy_ratio_order",
        "modewise_error_curves", "error_bound",
    ],
    "repro.tensor": [
        "Tensor", "unfold", "fold", "ttm", "multi_ttm",
        "gram", "eigendecompose",
        "rank_from_tolerance", "low_rank_tensor", "random_factor",
        "random_tensor",
    ],
    "repro.mpi": [
        "run_spmd", "Communicator", "CartGrid", "CostLedger",
        "SUM", "MAX", "MIN", "PROD",
        "MpiError", "DeadlockError", "SpmdError", "CommunicatorError",
    ],
    "repro.distributed": [
        "DistTensor", "DistTucker", "dist_ttm", "dist_gram", "dist_evecs",
        "dist_sthosvd", "dist_hooi", "dist_mode_svd", "tsqr_r",
        "choose_grid", "block_range",
    ],
    "repro.perfmodel": [
        "MachineSpec", "EDISON", "EDISON_CALIBRATED", "UNIT",
        "send_recv_cost", "allgather_cost", "reduce_cost", "allreduce_cost",
        "KernelCost", "ttm_cost", "gram_cost", "evecs_cost",
        "AlgorithmCost", "sthosvd_cost", "hooi_iteration_cost",
        "sthosvd_memory_bound", "strong_scaling_curve", "weak_scaling_curve",
        "grid_sweep", "mode_order_sweep",
    ],
    "repro.data": [
        "hcci_proxy", "tjlr_proxy", "sp_proxy", "load_dataset", "DATASETS",
        "center_and_scale", "invert_scaling", "multiway_field",
        "decay_profile", "dct_basis",
        "fig8a_problem", "fig8b_problem",
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
    ("repro.distributed.sthosvd", "project_modes"),
    ("repro.distributed.ring", "ring_exchange"),
    ("repro.core", "sthosvd"),
    ("repro.core", "hooi"),
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
# the execution-plan layer, and so is what lay outside the paper's surface
# with only tests to call it (the streaming extension, T-HOSVD, the
# baselines and the definitions below), and the communicator ops and
# definitions nothing in the program called (tests/analysis/
# test_no_orphans.py keeps new ones from appearing).  So is the recovery
# layer Alg. 1 has no step for: the fault-injection grammar, launch retry
# and the checkpoint store (tests install their faults themselves, from
# tests/faults/inject.py).
_CHECKPOINT_STORE = [
    "checkpoint_digest", "save_checkpoint_state", "load_checkpoint_state",
    "commit_checkpoint_meta", "read_checkpoint_meta",
    "clear_checkpoint_step", "clear_checkpoint",
]
RETIRED_NAMES = {
    "repro": ["hosvd"],
    "repro.analysis": ["sanitize_level"],
    "repro.analysis.sanitizer": ["sanitize_level", "SANITIZE_LEVELS"],
    "repro.config": ["PLAN_ENV_VAR", "resolve_plan", "active_config"],
    "repro.core.TuckerTensor": ["residual_norm_sq"],
    "repro.core": ["hosvd", "StreamingTucker"],
    "repro.data": ["strong_scaling_problem", "weak_scaling_problem"],
    "repro.distributed": ["DistStreamingTucker"],
    "repro.distributed.DistTensor": ["from_local_factory"],
    "repro.distributed.DistTucker": ["reconstruct_distributed"],
    "repro.distributed.sthosvd": ["reconstruct_modes"],
    "repro.perfmodel": [
        "ExecutionPlan", "plan_sthosvd", "refine_machine", "hooi_cost",
        "ttm_memory", "gram_memory", "evecs_memory", "alltoall_cost",
    ],
    "repro.perfmodel.collectives": ["alltoall_cost"],
    "repro.perfmodel.KernelCost": ["scaled"],
    "repro.perfmodel.MachineSpec": ["peak_flops", "with_efficiency"],
    "repro.tensor": ["leading_eigenvectors"],
    "repro.tensor.Tensor": ["nrank", "scale_by", "from_unfolding"],
    "repro.tensor.eig.EigResult": ["tail_sums"],
    "repro.util": ["gemm_flops"],
    "repro.io": _CHECKPOINT_STORE,
    "repro.io.tucker_io": [*_CHECKPOINT_STORE, "CHECKPOINT_VERSION"],
    "repro.mpi": [
        "AdmissionError", "BudgetExceededError", "estimate_world_shm",
        "BufferMismatchError", "FaultInjectedError", "FAULTS_ENV_VAR",
        "FaultSpec", "RetryPolicy", "resolve_faults",
    ],
    "repro.mpi.errors": [
        "AdmissionError", "BufferMismatchError", "FaultInjectedError",
    ],
    "repro.mpi.CartGrid": ["rank_of", "shifted"],
    "repro.mpi.Communicator": [
        "alltoall", "iallreduce", "ireduce_scatter_block", "isend", "irecv",
        "Send", "Recv", "split", "dup", "Get_rank", "Get_size",
    ],
    "repro.mpi.Request": ["test"],
    "repro.mpi.ProcessTransport": ["aborted"],
    "repro.resources": [
        "AdmissionController", "admission_controller", "ADMISSION_WAIT",
        "estimate_world_shm", "BudgetExceededError", "ResourceBoard",
    ],
    "repro.resources.ResourceGovernor": ["gate", "deconfigure"],
    "repro.resources.ResourceReport": ["degraded"],
}


def test_retired_names_stay_gone():
    present = {
        owner: [n for n in names if hasattr(resolve_dotted(owner), n)]
        for owner, names in RETIRED_NAMES.items()
    }
    present = {owner: names for owner, names in present.items() if names}
    assert not present, f"retired names still exported: {present}"


#: Modules deleted with the code outside the paper's surface.
RETIRED_MODULES = [
    "repro.baselines",
    "repro.core.hosvd",
    "repro.core.streaming",
    "repro.distributed.streaming",
    "repro.faults",
]


def test_retired_modules_do_not_import():
    import importlib.util

    present = [m for m in RETIRED_MODULES if importlib.util.find_spec(m)]
    assert not present, f"retired modules still import: {present}"


def test_run_spmd_takes_no_shm_estimate():
    import inspect

    from repro.mpi import run_spmd

    assert "shm_estimate" not in inspect.signature(run_spmd).parameters


@pytest.mark.parametrize(
    "module_name, name, keyword",
    [
        ("repro.mpi", "run_spmd", "faults"),
        ("repro.mpi", "run_spmd", "retry"),
        ("repro.distributed", "dist_sthosvd", "checkpoint"),
    ],
)
def test_recovery_keywords_stay_gone(module_name, name, keyword):
    import inspect

    obj = getattr(importlib.import_module(module_name), name)
    assert keyword not in inspect.signature(obj).parameters


@pytest.mark.parametrize(
    "env_var, value",
    [
        ("REPRO_FAULTS", "rank=0:site=allreduce:kind=exception"),
        ("REPRO_SPMD_RETRY", "0"),
    ],
)
def test_recovery_env_vars_are_not_read(env_var, value, monkeypatch):
    from repro.config import CONFIG_FIELDS
    from repro.mpi import run_spmd

    assert env_var not in {f.env for f in CONFIG_FIELDS}
    monkeypatch.setenv(env_var, value)
    assert run_spmd(2, _allreduce_ranks, timeout=20.0).values == [1, 1]


def _allreduce_ranks(comm):
    return comm.allreduce(comm.rank)


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
