"""RuntimeConfig layer: resolution precedence, validation, dispatch.

The contract under test is the tentpole of the config refactor: every
``REPRO_*`` knob is resolved exactly once at the ``run_spmd`` boundary
with precedence *keyword > config object > environment > default*, and
the resolved object reaches every layer (transport, kernels, drivers)
through the active-config dispatch — so an explicit ``RuntimeConfig``
and the equivalent environment produce bit-identical runs.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    CONFIG_FIELDS,
    RuntimeConfig,
    active_config,
    default_for,
    env_default,
    resolve_config,
    set_active_config,
)
from repro.distributed import DistTensor, dist_hooi, dist_sthosvd
from repro.mpi import CartGrid, run_spmd
from repro.tensor import low_rank_tensor
from tests.conftest import spmd


@pytest.fixture(autouse=True)
def clean_knob_env(monkeypatch):
    """Start every test from an unset REPRO_* environment."""
    for field in CONFIG_FIELDS:
        monkeypatch.delenv(field.env, raising=False)


class TestDefaults:
    def test_blank_config_matches_field_defaults(self):
        cfg = RuntimeConfig()
        for field in CONFIG_FIELDS:
            assert getattr(cfg, field.name) == field.default

    def test_blank_config_matches_clean_environment(self):
        assert resolve_config() == RuntimeConfig()

    def test_every_field_has_a_distinct_env_var(self):
        envs = [f.env for f in CONFIG_FIELDS]
        assert len(envs) == len(set(envs))
        assert all(env.startswith("REPRO_") for env in envs)

    def test_readme_table_lists_exactly_the_fields(self):
        # The README's configuration table is the knobs' only description.
        readme = Path(__file__).resolve().parents[2] / "README.md"
        rows = re.findall(
            r"^\| `(REPRO_\w+)`\s*\|([^|]*)\|", readme.read_text(), re.M
        )
        listed = sorted((env, field.strip().strip("`")) for env, field in rows)
        assert listed == sorted((f.env, f.name) for f in CONFIG_FIELDS)


class TestPrecedence:
    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        cfg = resolve_config()
        assert cfg.deadline == 2.5
        assert cfg.compute_dtype == "float32"

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        cfg = resolve_config(RuntimeConfig(deadline=0.0))
        assert cfg.deadline == 0.0

    def test_kwarg_beats_config(self):
        cfg = resolve_config(RuntimeConfig(sanitize=1), sanitize=0)
        assert cfg.sanitize == 0

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert resolve_config(sanitize=0).sanitize == 0

    def test_none_kwarg_means_unspecified(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
        assert resolve_config(backend=None).backend == "process"
        assert resolve_config(RuntimeConfig(backend="thread"),
                              backend=None).backend == "thread"

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown RuntimeConfig key"):
            resolve_config(overlpa=False)

    def test_non_config_object_rejected(self):
        with pytest.raises(TypeError, match="RuntimeConfig"):
            resolve_config({"sanitize": 1})


class TestEnvDefault:
    def test_parses_each_field_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_RETRY", "3")
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_DEADLINE", "64")
        assert env_default("retry") == 3
        assert env_default("timeout") == 7.5
        assert env_default("deadline") == 64.0

    @pytest.mark.parametrize(
        "name",
        [
            "backend", "compute_dtype", "sanitize", "faults", "retry",
            "timeout", "deadline",
        ],
    )
    def test_empty_value_reads_as_default(self, name, monkeypatch):
        field = next(f for f in CONFIG_FIELDS if f.name == name)
        monkeypatch.setenv(field.env, "")
        assert env_default(name) == field.default

    def test_empty_retry_still_launches(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_RETRY", "")
        assert resolve_config().retry == 1
        assert list(spmd(2, lambda comm: comm.rank)) == [0, 1]

    def test_historical_error_messages(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "nope")
        with pytest.raises(ValueError, match="invalid REPRO_SANITIZE"):
            env_default("sanitize")
        monkeypatch.setenv("REPRO_SANITIZE", "2")
        with pytest.raises(
            ValueError, match=r"sanitize level must be one of \(0, 1\), got 2"
        ):
            env_default("sanitize")
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SPMD_TIMEOUT"):
            env_default("timeout")
        monkeypatch.setenv("REPRO_DTYPE", "float16")
        with pytest.raises(ValueError, match="unknown REPRO_DTYPE"):
            env_default("compute_dtype")
        monkeypatch.setenv("REPRO_SPMD_RETRY", "twice")
        with pytest.raises(ValueError, match="REPRO_SPMD_RETRY"):
            env_default("retry")


class TestValidation:
    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"compute_dtype": "float16"}, "unknown REPRO_DTYPE"),
            ({"sanitize": 2}, "sanitize level"),
            ({"retry": 0}, "retry"),
            ({"timeout": 0.0}, "timeout"),
            ({"deadline": -0.1}, "deadline"),
            # NaN fails every comparison, so a ``<= 0`` check lets it by.
            ({"timeout": float("nan")}, "timeout"),
            ({"deadline": float("nan")}, "deadline"),
        ],
    )
    def test_bad_values_rejected(self, changes, match):
        with pytest.raises(ValueError, match=match):
            RuntimeConfig(**changes)

    @pytest.mark.parametrize(
        "env, name",
        [("REPRO_SPMD_TIMEOUT", "timeout"), ("REPRO_DEADLINE", "deadline")],
    )
    def test_nan_from_the_environment_rejected(self, env, name, monkeypatch):
        monkeypatch.setenv(env, "nan")
        with pytest.raises(ValueError, match=f"{name} must be"):
            resolve_config()

    def test_dataclasses_replace_validates(self):
        # ``dataclasses.replace`` is how a config is varied; it runs
        # ``__post_init__``, so a bad value cannot slip in that way.
        with pytest.raises(ValueError, match="timeout must be positive"):
            dataclasses.replace(RuntimeConfig(), timeout=float("nan"))
        assert dataclasses.replace(
            RuntimeConfig(), compute_dtype="mixed"
        ) == RuntimeConfig(compute_dtype="mixed")

    def test_dataclasses_replace_rejects_a_retired_knob(self):
        with pytest.raises(TypeError, match="plan"):
            dataclasses.replace(RuntimeConfig(), plan="auto")

    def test_infinite_timeout_and_deadline_accepted(self):
        cfg = RuntimeConfig(timeout=float("inf"), deadline=float("inf"))
        assert cfg.timeout == cfg.deadline == float("inf")

    def test_frozen(self):
        with pytest.raises(Exception):
            RuntimeConfig().sanitize = 1


class TestRetiredKnobs:
    @pytest.mark.parametrize(
        "retired, value",
        [
            ("ttm_batch_lead", 32),
            ("overlap", True),
            ("tsqr_tree", "binary"),
            ("compress_wire", False),
            ("pool", True),
            ("arena", True),
            ("windows", True),
            ("window_slot", 0),
            ("hugepages", "auto"),
            ("shm_budget", 0),
            ("max_worlds", 0),
        ],
    )
    def test_retired_knob_is_rejected_by_the_constructor(self, retired, value):
        # An old call site that still passes the knob fails loudly instead
        # of having it silently dropped.
        with pytest.raises(TypeError, match=retired):
            RuntimeConfig(**{retired: value})
        with pytest.raises(ValueError, match="unknown RuntimeConfig key"):
            resolve_config(**{retired: value})
        assert retired not in {f.name for f in CONFIG_FIELDS}
        assert len(CONFIG_FIELDS) == 7

    @pytest.mark.parametrize(
        "env_var, value",
        [
            ("REPRO_SPMD_OVERLAP", "0"),
            ("REPRO_TSQR_TREE", "butterfly"),
            ("REPRO_WIRE_COMPRESS", "1"),
            ("REPRO_SPMD_POOL", "0"),
            ("REPRO_SHM_ARENA", "0"),
            ("REPRO_SPMD_WINDOWS", "0"),
            ("REPRO_SPMD_WINDOW_SLOT", "131072"),
            ("REPRO_SPMD_HUGEPAGES", "not-a-mode"),
            ("REPRO_SHM_BUDGET", "1M"),
            ("REPRO_MAX_WORLDS", "2"),
            ("REPRO_PLAN", "auto"),
        ],
    )
    def test_retired_env_var_is_not_consulted(self, env_var, value, monkeypatch):
        # No field reads it any more, so the resolved config is the one an
        # empty environment gives.
        monkeypatch.delenv(env_var, raising=False)
        clean = resolve_config()
        monkeypatch.setenv(env_var, value)
        assert resolve_config() == clean
        assert env_var not in {f.env for f in CONFIG_FIELDS}

    def test_env_spelling_of_every_field_reproduces_the_config(
        self, monkeypatch
    ):
        cfg = RuntimeConfig(
            backend="process", compute_dtype="mixed", sanitize=1,
            timeout=30.0, retry=2, deadline=2.5,
        )
        for f in CONFIG_FIELDS:
            monkeypatch.setenv(f.env, str(getattr(cfg, f.name)))
        assert resolve_config() == cfg


class TestActiveConfigDispatch:
    def test_install_and_restore(self):
        assert active_config() is None
        cfg = RuntimeConfig(sanitize=1)
        previous = set_active_config(cfg)
        try:
            assert previous is None
            assert active_config() is cfg
            assert default_for("sanitize") == 1
        finally:
            set_active_config(previous)
        assert active_config() is None

    def test_default_for_falls_back_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_RETRY", "4")
        assert default_for("retry") == 4

    def test_run_spmd_installs_config_in_ranks(self):
        cfg = RuntimeConfig(deadline=60.0, compute_dtype="mixed",
                            timeout=20.0)

        def prog(comm):
            return default_for("deadline"), default_for("compute_dtype")

        results = run_spmd(2, prog, config=cfg)
        assert list(results) == [(60.0, "mixed")] * 2
        # The installation is scoped to the run.
        assert active_config() is None

    def test_run_spmd_kwarg_beats_config_field(self):
        cfg = RuntimeConfig(sanitize=0, timeout=20.0)

        def prog(comm):
            return default_for("sanitize")

        assert list(run_spmd(2, prog, config=cfg, sanitize=1)) == [1, 1]

    @pytest.mark.parametrize("via", ["keyword", "env"])
    def test_nan_timeout_starts_no_rank(self, via, monkeypatch):
        # A NaN timeout would never expire: deadlock detection would be off.
        started = []
        kwargs = {}
        if via == "keyword":
            kwargs["timeout"] = float("nan")
        else:
            monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "nan")
        with pytest.raises(ValueError, match="timeout must be positive"):
            run_spmd(2, lambda comm: started.append(comm.rank), **kwargs)
        assert started == []


class TestBitIdentity:
    """Every way of setting the kernel dtype gives the same bytes."""

    GRID = (2, 2, 1)
    RANKS = (3, 3, 2)

    def _factors_and_core(self, compute_dtype=None, **run_kwargs):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=11, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, self.GRID)
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=self.RANKS, compute_dtype=compute_dtype)
            tucker = t.to_tucker()
            return [tucker.core.tobytes()] + [u.tobytes() for u in tucker.factors]

        return spmd(int(np.prod(self.GRID)), prog, **run_kwargs)[0]

    @pytest.mark.parametrize("dtype", ["float32", "mixed"])
    def test_keyword_config_and_env_agree(self, dtype, monkeypatch):
        via_keyword = self._factors_and_core(compute_dtype=dtype)
        via_config = self._factors_and_core(
            config=RuntimeConfig(compute_dtype=dtype, timeout=20.0)
        )
        monkeypatch.setenv("REPRO_DTYPE", dtype)
        via_env = self._factors_and_core()
        assert via_keyword == via_config == via_env
        assert via_keyword != self._factors_and_core(compute_dtype="float64")

    @pytest.mark.parametrize(
        "dtype, init_dtype",
        [("float64", "float64"), ("float32", "float32"), ("mixed", "float32")],
    )
    def test_dist_hooi_runs_its_init_in_the_forwarded_dtype(
        self, dtype, init_dtype
    ):
        # dist_hooi hands its ST-HOSVD initialization only
        # ``compute_dtype``: float32 for float32 and mixed (the float64
        # sweeps refine a mixed run), float64 otherwise.  With no sweeps
        # the core and eigenvalues are the initialization's, byte for byte.
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=11, noise=0.02)

        def prog(comm, hooi_dtype, sthosvd_dtype):
            dt = DistTensor.from_global(CartGrid(comm, self.GRID), x)
            if hooi_dtype is not None:
                t = dist_hooi(
                    dt, ranks=self.RANKS, max_iterations=0,
                    compute_dtype=hooi_dtype,
                ).decomposition
            else:
                t = dist_sthosvd(
                    dt, ranks=self.RANKS, compute_dtype=sthosvd_dtype
                )
            return [t.to_tucker().core.tobytes()] + [
                np.asarray(ev).tobytes() for ev in t.eigenvalues
            ]

        n = int(np.prod(self.GRID))
        via_hooi = spmd(n, prog, dtype, None)[0]
        assert via_hooi == spmd(n, prog, None, init_dtype)[0]
        assert (via_hooi == spmd(n, prog, None, "float64")[0]) == (
            init_dtype == "float64"
        )
