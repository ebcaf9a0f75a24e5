"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.perfmodel.machine import UNIT


@pytest.fixture
def rng():
    """A deterministic RNG per test."""
    return np.random.default_rng(12345)


def spmd(n_ranks, fn, *args, **kwargs):
    """Run an SPMD function with test-friendly defaults (short timeout)."""
    kwargs.setdefault("timeout", 20.0)
    return run_spmd(n_ranks, fn, *args, **kwargs)


def deny_first_arena_allocations(n: int) -> str:
    """Fault spec failing each rank's first ``n`` shm allocations with
    ``ENOSPC``, as a full ``/dev/shm`` would."""
    return ";".join(
        f"rank=*:site=arena:kind=enospc:nth={k}" for k in range(1, n + 1)
    )


def spmd_unit(n_ranks, fn, *args, **kwargs):
    """SPMD run on the unit-cost machine (time == messages+words+flops)."""
    kwargs.setdefault("machine", UNIT)
    return spmd(n_ranks, fn, *args, **kwargs)


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
