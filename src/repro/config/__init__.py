"""Runtime configuration layer: typed knobs, one resolver, one env reader.

See :mod:`repro.config.runtime`.  Every ``REPRO_*`` environment variable
is resolved here and only here (``tests/analysis/test_source_rules.py``
checks it); the rest of the stack receives an explicit
:class:`RuntimeConfig`.
"""

from repro.config.runtime import (
    CONFIG_FIELDS,
    ConfigField,
    RuntimeConfig,
    active_config,
    default_for,
    env_default,
    resolve_config,
    set_active_config,
)

__all__ = [
    "CONFIG_FIELDS",
    "ConfigField",
    "RuntimeConfig",
    "active_config",
    "default_for",
    "env_default",
    "resolve_config",
    "set_active_config",
]
