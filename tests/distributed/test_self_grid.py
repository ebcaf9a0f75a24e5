"""The one-rank grid, and the sequential entry points that run on it.

``core.sthosvd`` and ``core.hooi`` are the distributed drivers on
:func:`repro.distributed.self_grid`.  What that must preserve:
the run knobs (``REPRO_*``) do not reach them, either input layout runs
where it lies, and the drivers' own contracts (float64 deliverables, the
exact fit quantity) hold on one rank as on many.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import hooi, sthosvd
from repro.distributed import DistTensor, dist_hooi, dist_sthosvd, self_grid
from repro.mpi import CartGrid, available_backends
from repro.tensor import low_rank_tensor
from repro.tensor.dense import PANEL_BYTES, norm_sq
from tests.conftest import spmd
from tests.faults.inject import Fault, in_every_run
from tests.reference import st_hosvd

BACKENDS = sorted(available_backends())


@pytest.fixture(autouse=True)
def spmd_backend():
    """Override the package's backend sweep: the sequential entry points
    launch nothing, and the SPMD tests here name their backends."""
    return None


def test_self_grid_is_one_rank_of_all_ones():
    grid = self_grid(4)
    assert grid.dims == (1, 1, 1, 1) and grid.coords == (0, 0, 0, 0)
    assert grid.comm.size == 1 and grid.comm.sanitizer is None
    x = np.asfortranarray(np.arange(24.0).reshape(2, 3, 4))
    dt = DistTensor(self_grid(3), x.shape, x)
    assert dt.local is x
    assert dt.norm_sq() == norm_sq(x)


def _fingerprint():
    x = low_rank_tensor((9, 8, 7), (3, 3, 2), seed=21, noise=0.05)
    out = []
    for method in ("gram", "svd"):
        for kw in ({"tol": 0.1}, {"ranks": (3, 3, 2)}):
            d = sthosvd(x, method=method, **kw).decomposition
            out += [d.core.tobytes()] + [f.tobytes() for f in d.factors]
    h = hooi(x, ranks=(3, 2, 2), max_iterations=3, improvement_tol=0.0)
    out += [h.decomposition.core.tobytes(), repr(h.residual_history)]
    return out


def test_run_knobs_do_not_reach_the_sequential_entry_points(monkeypatch):
    # A narrowed dtype, the sanitizer and, in every launched run, a crash
    # at the first all-reduce: none of them may change a bit of the
    # sequential results, which launch nothing.
    unset = _fingerprint()
    monkeypatch.setenv("REPRO_DTYPE", "mixed")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with in_every_run(Fault("allreduce", "crash", 0)):
        assert _fingerprint() == unset


@pytest.mark.parametrize("method", ["gram", "svd"])
@pytest.mark.parametrize("kw", [{"tol": 0.05}, {"ranks": (4, 3, 2, 3)}])
def test_c_ordered_input_gives_the_c_ordered_core(method, kw):
    f = low_rank_tensor((7, 6, 5, 4), (4, 3, 2, 3), seed=22, noise=0.01)
    c = np.ascontiguousarray(f)
    from_f = sthosvd(f, method=method, **kw)
    from_c = sthosvd(c, method=method, **kw)
    assert from_c.ranks == from_f.ranks
    assert from_c.decomposition.core.flags.c_contiguous
    assert from_f.decomposition.core.flags.f_contiguous
    np.testing.assert_allclose(
        from_c.decomposition.core, from_f.decomposition.core,
        rtol=0, atol=1e-12,
    )
    assert from_c.mode_order == from_f.mode_order
    ref = st_hosvd(f, mode_order=from_c.mode_order, **kw)
    np.testing.assert_allclose(
        from_c.decomposition.reconstruct(), ref.reconstruct(), atol=1e-10
    )


@pytest.mark.parametrize("layout", ["F", "C"])
@pytest.mark.parametrize("method", ["gram", "svd"])
def test_neither_layout_copies_the_input(layout, method):
    # 16 MiB of input against the kernels' own budget (1 MB of slack plus
    # the Gram panel / QR chunk) beyond the result: one copy of the input
    # would overshoot it sixteen times.
    x = np.asfortranarray(
        np.random.default_rng(3).standard_normal((128, 128, 128))
    )
    x = x if layout == "F" else np.ascontiguousarray(x)
    tracemalloc.start()
    try:
        res = sthosvd(x, ranks=(2, 2, 2), method=method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d = res.decomposition
    result = d.core.nbytes + sum(f.nbytes for f in d.factors)
    assert peak - result < (1 << 20) + PANEL_BYTES, peak


def _float32_prog(comm, x, dims):
    dt = DistTensor.from_global(CartGrid(comm, dims), x)
    assert dt.local.dtype == np.float32
    t = dist_sthosvd(dt, ranks=(4, 3, 2), compute_dtype="float64")
    return (
        t.core.local.dtype, [f.dtype for f in t.factors_local], t.to_tucker()
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1)])
def test_float32_input_under_float64_compute_returns_float64(dims, backend):
    x = low_rank_tensor((8, 6, 5), (4, 3, 2), seed=23, noise=0.01)
    x32 = x.astype(np.float32)
    res = spmd(int(np.prod(dims)), _float32_prog, x32, dims, backend=backend)
    ref = st_hosvd(x, ranks=(4, 3, 2))
    for core_dtype, factor_dtypes, tucker in res:
        assert core_dtype == np.float64
        assert factor_dtypes == [np.float64] * 3
        # float32 kernels: single-precision agreement with the reference.
        np.testing.assert_allclose(
            tucker.reconstruct(), ref.reconstruct(), atol=1e-5
        )


def _hooi_prog(comm, x):
    dt = DistTensor.from_global(CartGrid(comm, (1, 1, 1)), x)
    res = dist_hooi(
        dt, ranks=(3, 3, 2), max_iterations=0, compute_dtype="float64"
    )
    return (
        res.residual_history,
        res.decomposition.to_tucker().core,
        res.decomposition.x_norm_sq,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_fit_history_starts_from_the_exact_norm(backend):
    # ||X||^2 is carried as summed (the first mode's whole spectrum),
    # never as the square of its root, so the first fit value is the
    # subtraction itself, bit for bit (on an input whose norm does not
    # survive the round trip through the root).
    x = np.asfortranarray(
        low_rank_tensor((9, 8, 7), (4, 3, 3), seed=27, noise=0.3)
    )
    assert np.sqrt(norm_sq(x)) ** 2 != norm_sq(x)
    history, core, x_norm_sq = spmd(1, _hooi_prog, x, backend=backend)[0]
    assert abs(x_norm_sq - norm_sq(x)) <= 1e-14 * norm_sq(x)
    assert history[0] == x_norm_sq - norm_sq(core)
    assert hooi(x, ranks=(3, 3, 2), max_iterations=0).residual_history == (
        history[0],
    )
