"""Typed runtime configuration: every ``REPRO_*`` knob as one frozen object.

* :class:`RuntimeConfig` — a frozen dataclass holding every knob, with
  the same defaults the environment switches have always had.
* :func:`resolve_config` — the *only* place knob precedence lives:
  explicit keyword > explicit config object > environment variable >
  default, resolved **once** at the ``run_spmd`` boundary.
* :func:`env_default` — the repository's single ``os.environ`` reader
  for ``REPRO_*`` knobs (``tests/analysis/test_source_rules.py`` checks
  that no other module reads them directly).  Environment variables
  remain the user surface; this resolver is their only consumer.
* :func:`set_active_config` / :func:`default_for` — the dispatch
  mechanism that threads a resolved config through transport, kernels
  and drivers without changing any public helper contract: ``run_spmd``
  installs the resolved config for the duration of the run (and ships
  it to pooled workers via the per-run dispatch), and every legacy
  helper (``sanitize_level``, ``resolve_compute_dtype``, ...) consults
  :func:`default_for` instead of the environment.

The config is plain data (str/int/float only) and picklable, so it can
ride the process backend's per-run dispatch.  The README's runtime
configuration table documents each knob.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "RuntimeConfig",
    "ConfigField",
    "CONFIG_FIELDS",
    "resolve_config",
    "env_default",
    "default_for",
    "set_active_config",
    "active_config",
]

_SANITIZE_LEVELS = (0, 1)
_COMPUTE_DTYPES = ("float64", "float32", "mixed")


def _parse_dtype(raw: str) -> str:
    value = raw.strip() or "float64"
    if value not in _COMPUTE_DTYPES:
        raise ValueError(
            f"unknown REPRO_DTYPE value {value!r}; "
            f"use one of {_COMPUTE_DTYPES}"
        )
    return value


def _parse_timeout(raw: str) -> float:
    raw = raw.strip()
    if not raw:
        return 120.0
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SPMD_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None


def _parse_sanitize(raw: str) -> int:
    raw = raw.strip() or "0"
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid REPRO_SANITIZE value {raw!r}: use 0 or 1"
        ) from None
    if value not in _SANITIZE_LEVELS:
        raise ValueError(
            f"sanitize level must be one of {_SANITIZE_LEVELS}, got {value}"
        )
    return value


def _parse_retry(raw: str) -> int:
    raw = raw.strip() or "1"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SPMD_RETRY must be an integer, got {raw!r}"
        ) from None


def _parse_deadline(raw: str) -> float:
    raw = raw.strip()
    if not raw:
        return 0.0
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_DEADLINE must be a number of seconds, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class ConfigField:
    """One runtime knob: its config field, env var, default and parser."""

    name: str
    env: str
    default: Any
    parse: Callable[[str], Any]

    def from_env_raw(self, raw: str | None) -> Any:
        """Value for this field given the raw env string (None = unset)."""
        if raw is None:
            return self.default
        return self.parse(raw)


#: Every runtime knob, in resolution-table order.  Defaults are exactly
#: the values the environment switches have always fallen back to.
CONFIG_FIELDS: tuple[ConfigField, ...] = (
    ConfigField(
        "backend", "REPRO_SPMD_BACKEND", "thread",
        lambda raw: raw.strip() or "thread",
    ),
    ConfigField("compute_dtype", "REPRO_DTYPE", "float64", _parse_dtype),
    ConfigField("sanitize", "REPRO_SANITIZE", 0, _parse_sanitize),
    ConfigField("faults", "REPRO_FAULTS", "", lambda raw: raw.strip()),
    ConfigField("retry", "REPRO_SPMD_RETRY", 1, _parse_retry),
    ConfigField("timeout", "REPRO_SPMD_TIMEOUT", 120.0, _parse_timeout),
    ConfigField("deadline", "REPRO_DEADLINE", 0.0, _parse_deadline),
)

_FIELD_BY_NAME: dict[str, ConfigField] = {f.name: f for f in CONFIG_FIELDS}


@dataclass(frozen=True)
class RuntimeConfig:
    """The complete, validated knob settings of one SPMD run.

    Field defaults match the environment-variable defaults exactly, so
    ``RuntimeConfig()`` is the out-of-the-box configuration.  Instances
    are immutable, hashable on their field tuple and picklable (they
    ride the process backend's per-run dispatch to pooled workers).
    """

    backend: str = "thread"
    compute_dtype: str = "float64"
    sanitize: int = 0
    faults: str = ""
    retry: int = 1
    timeout: float = 120.0
    deadline: float = 0.0

    def __post_init__(self) -> None:
        # Normalize numeric types first (so env-parsed and user-passed
        # values validate identically), then check every knob's grammar
        # with the same messages the scattered resolvers always raised.
        object.__setattr__(self, "backend", str(self.backend))
        object.__setattr__(self, "compute_dtype", str(self.compute_dtype))
        object.__setattr__(self, "sanitize", int(self.sanitize))
        object.__setattr__(self, "faults", str(self.faults))
        object.__setattr__(self, "retry", int(self.retry))
        object.__setattr__(self, "timeout", float(self.timeout))
        object.__setattr__(self, "deadline", float(self.deadline))
        if self.compute_dtype not in _COMPUTE_DTYPES:
            raise ValueError(
                f"unknown REPRO_DTYPE value {self.compute_dtype!r}; "
                f"use one of {_COMPUTE_DTYPES}"
            )
        if self.sanitize not in _SANITIZE_LEVELS:
            raise ValueError(
                f"sanitize level must be one of {_SANITIZE_LEVELS}, "
                f"got {self.sanitize}"
            )
        if self.retry < 1:
            raise ValueError(f"retry must be >= 1, got {self.retry}")
        # ``not x > 0`` rather than ``x <= 0``: NaN must fail too (a NaN
        # timeout would never expire, a NaN deadline would mean none).
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if not self.deadline >= 0:
            raise ValueError(
                f"deadline must be non-negative, got {self.deadline}"
            )


# -- resolution ---------------------------------------------------------


def env_default(name: str) -> Any:
    """This knob's value from its environment variable (or its default).

    The single place in the repository where a ``REPRO_*`` variable is
    read (``tests/analysis/test_source_rules.py`` keeps it that way).  Raises ``ValueError`` with
    the knob's historical message on a value its parser rejects; the
    numeric ranges (``retry``, ``timeout``, ``deadline``) are checked
    where the value reaches :class:`RuntimeConfig`.
    """
    field = _FIELD_BY_NAME[name]
    return field.from_env_raw(os.environ.get(field.env))


def resolve_config(
    config: RuntimeConfig | None = None, **overrides: Any
) -> RuntimeConfig:
    """The effective config: keyword > ``config`` object > env > default.

    ``overrides`` are per-field keywords; ``None`` means "not specified"
    (the field falls through to ``config`` or the environment).  Unknown
    keys are rejected.  The returned config is fully validated.
    """
    unknown = sorted(set(overrides) - set(_FIELD_BY_NAME))
    if unknown:
        raise ValueError(
            f"unknown RuntimeConfig key(s): {', '.join(unknown)}; "
            f"known: {', '.join(f.name for f in CONFIG_FIELDS)}"
        )
    if config is None:
        values = {f.name: env_default(f.name) for f in CONFIG_FIELDS}
    elif isinstance(config, RuntimeConfig):
        values = dataclasses.asdict(config)
    else:
        raise TypeError(
            f"config must be a RuntimeConfig or None, got "
            f"{type(config).__name__}"
        )
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return RuntimeConfig(**values)


# -- active-config dispatch ---------------------------------------------

#: The config installed for the currently-executing run, if any.
#: ``run_spmd`` installs the resolved config in the launching process
#: (thread ranks see it directly) and the process backend ships it to
#: its rank workers with the run's task.
_ACTIVE: RuntimeConfig | None = None


def set_active_config(config: RuntimeConfig | None) -> RuntimeConfig | None:
    """Install ``config`` as the active run config; returns the previous
    one so callers can restore it (always pair with a ``finally``)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = config
    return previous


def active_config() -> RuntimeConfig | None:
    """The currently-installed run config (``None`` outside a run)."""
    return _ACTIVE


def default_for(name: str) -> Any:
    """The value a knob helper should fall back to when its argument is
    ``None``: the active run config if one is installed, else the
    environment (then the built-in default)."""
    if _ACTIVE is not None:
        return getattr(_ACTIVE, name)
    return env_default(name)
