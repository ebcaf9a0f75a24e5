"""Shared ``spmd_backend`` fixture: run a test package under every backend.

Imported by the ``conftest.py`` of each package whose tests should execute
under both executor backends (``tests/mpi``, ``tests/distributed``,
``tests/faults``), or by a single test module (``test_sanitizer.py``).  The
backend is selected through the ``REPRO_SPMD_BACKEND`` environment
variable, which ``run_spmd`` consults whenever no explicit ``backend=`` is
passed — exactly how a user would flip backends without touching code.
"""

from __future__ import annotations

import pytest

from repro.mpi import BACKEND_ENV_VAR, available_backends


@pytest.fixture(params=sorted(available_backends()), autouse=True)
def spmd_backend(request, monkeypatch):
    backend = request.param
    monkeypatch.setenv(BACKEND_ENV_VAR, backend)
    return backend
