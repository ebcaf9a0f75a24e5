"""RuntimeConfig layer: resolution precedence, serialization, dispatch.

The contract under test is the tentpole of the config refactor: every
``REPRO_*`` knob is resolved exactly once at the ``run_spmd`` boundary
with precedence *keyword > config object > environment > default*, and
the resolved object reaches every layer (transport, kernels, drivers)
through the active-config dispatch — so an explicit ``RuntimeConfig``
and the equivalent environment produce bit-identical runs.
"""

import json

import numpy as np
import pytest

from repro.config import (
    CONFIG_FIELDS,
    PLAN_ENV_VAR,
    RuntimeConfig,
    active_config,
    default_for,
    env_default,
    resolve_config,
    resolve_plan,
    set_active_config,
)
from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, run_spmd
from repro.tensor import low_rank_tensor
from tests.conftest import spmd


@pytest.fixture(autouse=True)
def clean_knob_env(monkeypatch):
    """Start every test from an unset REPRO_* environment."""
    for field in CONFIG_FIELDS:
        monkeypatch.delenv(field.env, raising=False)
    monkeypatch.delenv(PLAN_ENV_VAR, raising=False)


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
        ],
    )
    def test_bad_values_rejected(self, changes, match):
        with pytest.raises(ValueError, match=match):
            RuntimeConfig(**changes)

    def test_frozen(self):
        with pytest.raises(Exception):
            RuntimeConfig().sanitize = 1


class TestSerialization:
    def test_json_round_trip(self):
        cfg = RuntimeConfig(
            backend="process", compute_dtype="mixed", retry=3,
            sanitize=1, faults="crash:rank=1:call=3", timeout=5.0,
        )
        assert RuntimeConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="invalid RuntimeConfig JSON"):
            RuntimeConfig.from_json("{not json")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown RuntimeConfig key"):
            RuntimeConfig.from_dict({"sanitize": 1, "bogus": 1})

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
    def test_retired_knob_in_persisted_json_is_rejected(self, retired, value):
        # A config or plan saved while a knob still had two settings
        # carries its key; replaying it must say so, not silently drop
        # the key.
        stale = json.loads(RuntimeConfig().to_json())
        stale[retired] = value
        with pytest.raises(
            ValueError, match=f"unknown RuntimeConfig key.*{retired}"
        ):
            RuntimeConfig.from_json(json.dumps(stale))
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

    def test_replace_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown RuntimeConfig key"):
            RuntimeConfig().replace(bogus=1)

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="unknown REPRO_DTYPE"):
            RuntimeConfig().replace(compute_dtype="float16")

    def test_to_env_reproduces_the_config(self, monkeypatch):
        cfg = RuntimeConfig(
            backend="process", compute_dtype="mixed", sanitize=1,
            timeout=30.0, retry=2, deadline=2.5,
        )
        for env, raw in cfg.to_env().items():
            monkeypatch.setenv(env, raw)
        assert resolve_config() == cfg

    def test_describe_covers_every_field(self):
        rows = RuntimeConfig().describe()
        assert [r[0] for r in rows] == [f.name for f in CONFIG_FIELDS]
        assert all(len(r) == 4 for r in rows)


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


class TestResolvePlan:
    def test_unset_is_none(self):
        assert resolve_plan() is None

    def test_default_is_none(self, monkeypatch):
        assert resolve_plan("default") is None
        monkeypatch.setenv(PLAN_ENV_VAR, "default")
        assert resolve_plan() is None

    def test_env_selector(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV_VAR, "auto")
        assert resolve_plan() == "auto"

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV_VAR, "auto")
        assert resolve_plan("default") is None


class TestBitIdentity:
    """Explicit config == equivalent environment, bit for bit."""

    GRID = (2, 2, 1)
    RANKS = (3, 3, 2)

    def _factors_and_core(self, **sthosvd_kwargs):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=11, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, self.GRID)
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=self.RANKS, **sthosvd_kwargs)
            tucker = t.to_tucker()
            return tucker.core, tucker.factors

        return spmd(int(np.prod(self.GRID)), prog)[0]

    def test_config_matches_equivalent_env(self, monkeypatch):
        cfg = RuntimeConfig(compute_dtype="float32")
        via_config = self._factors_and_core(config=cfg)

        monkeypatch.setenv("REPRO_DTYPE", "float32")
        via_env = self._factors_and_core()

        assert via_config[0].tobytes() == via_env[0].tobytes()
        for u_cfg, u_env in zip(via_config[1], via_env[1]):
            assert u_cfg.tobytes() == u_env.tobytes()

    def test_auto_plan_matches_its_explicit_config(self):
        from repro.perfmodel import plan_sthosvd

        planned = plan_sthosvd(
            (8, 6, 4), ranks=self.RANKS, grid=self.GRID
        ).config
        via_plan = self._factors_and_core(plan="auto")
        via_config = self._factors_and_core(config=planned)

        assert via_plan[0].tobytes() == via_config[0].tobytes()
        for u_plan, u_cfg in zip(via_plan[1], via_config[1]):
            assert u_plan.tobytes() == u_cfg.tobytes()

    def test_json_plan_replays_a_config(self):
        cfg = RuntimeConfig(compute_dtype="float32")
        via_json = self._factors_and_core(plan=cfg.to_json())
        via_config = self._factors_and_core(config=cfg)
        assert via_json[0].tobytes() == via_config[0].tobytes()
