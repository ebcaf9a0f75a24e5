"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.perfmodel.machine import UNIT
from tests.faults.inject import CONSTRAINED, in_every_run


def pytest_addoption(parser):
    parser.addoption(
        "--constrained", choices=sorted(CONSTRAINED), default=None,
        help="run every SPMD run under these faults (tests/faults/inject.py)",
    )


@pytest.fixture(autouse=True)
def constrained_resources(request):
    """The faults ``--constrained`` names, installed in every SPMD run."""
    name = request.config.getoption("--constrained")
    if name is None:
        yield
        return
    with in_every_run(*CONSTRAINED[name]):
        yield


@pytest.fixture
def rng():
    """A deterministic RNG per test."""
    return np.random.default_rng(12345)


def spmd(n_ranks, fn, *args, **kwargs):
    """Run an SPMD function with test-friendly defaults (short timeout)."""
    kwargs.setdefault("timeout", 20.0)
    return run_spmd(n_ranks, fn, *args, **kwargs)


def spmd_unit(n_ranks, fn, *args, **kwargs):
    """SPMD run on the unit-cost machine (time == messages+words+flops)."""
    kwargs.setdefault("machine", UNIT)
    return spmd(n_ranks, fn, *args, **kwargs)


def resolve_dotted(dotted: str):
    """What a dotted ``repro.a.b`` name refers to: the longest prefix that
    imports, then attributes of it.  Raises ``AttributeError`` when the
    name refers to nothing."""
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise AttributeError(f"{dotted} names no module")


def suite_compute_dtype() -> str:
    """The compute dtype the whole suite runs under (the REPRO_DTYPE CI leg).

    Agreement tests compare distributed results against float64 sequential
    references; under a narrowed suite dtype those comparisons legitimately
    loosen.  Tests read the environment directly on purpose — they describe
    the launch configuration, unlike library code (see
    ``tests/analysis/test_source_rules.py``).
    """
    import os

    return os.environ.get("REPRO_DTYPE", "float64")


def recon_atol(float64_atol: float = 1e-8) -> float:
    """Reconstruction comparison atol, widened under a narrow suite dtype.

    float32/mixed factor subspaces carry single-precision roundoff, so a
    reconstruction agrees with the float64 sequential reference only to
    ~sqrt(eps_f32) relative (measured ~2e-7 on the suite problems; 1e-4
    leaves margin across seeds and shapes).
    """
    return float64_atol if suite_compute_dtype() == "float64" else 1e-4
