"""Driver oracle: ``dist_sthosvd`` on the geometries the property
strategies never draw, held to the paper's invariants.

``tests/distributed/test_properties.py`` draws 2- and 3-way tensors of
extent 2-7 on grids of at most 3 ranks per mode.  This table covers what
that leaves out: size-1 modes, ``P_n == I_n``, ``P_n`` not dividing
``I_n``, 4- and 5-way tensors, and every benchmark workload's
``selftest_shape`` on the grid ``choose_grid`` gives it.  Each geometry
runs on the Gram and the QR path, with a tolerance and with fixed ranks,
and (through the package's ``spmd_backend`` sweep) on both executor
backends.  Every case checks:

* ``||X - X~|| <= tol ||X||`` (tolerance runs);
* orthonormal factors;
* ``error_estimate()`` equal to the true error (float64);
* agreement with the textbook ST-HOSVD of ``tests/reference.py`` run in
  the mode order the driver reports: ranks, spectra and reconstruction.

A grid with ``P_n > I_n`` has no block distribution and is refused.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

import repro.data
from bench.workloads import N_RANKS, TOL, WORKLOADS
from repro.distributed import DistTensor, choose_grid, dist_sthosvd
from repro.mpi import CartGrid, SpmdError
from repro.tensor import low_rank_tensor
from repro.util.validation import prod
from tests.conftest import recon_atol, spmd, suite_compute_dtype
from tests.reference import st_hosvd


class Geometry(NamedTuple):
    shape: tuple[int, ...]
    grid: tuple[int, ...]
    ranks: tuple[int, ...]  # the fixed-rank run's ranks
    tol: float
    workload: str | None = None  # a bench workload's proxy as the input

    def tensor(self) -> np.ndarray:
        if self.workload is None:
            # Exact multilinear rank ``ranks`` under a noise floor well
            # below ``tol``: the tolerance run cuts at a clear gap.
            return low_rank_tensor(self.shape, self.ranks, seed=45, noise=0.01)
        w = WORKLOADS[self.workload]
        x = getattr(repro.data, w.proxy)(shape=self.shape).tensor
        x, _ = repro.data.center_and_scale(x, w.species_mode)
        return np.asfortranarray(x)


def _selftest(name: str) -> Geometry:
    shape = WORKLOADS[name].selftest_shape
    grid = choose_grid(N_RANKS, shape)
    ranks = tuple(max(p, min(s, 3)) for s, p in zip(shape, grid))
    return Geometry(shape, grid, ranks, TOL, name)


GEOMETRIES = {
    "size1-first": Geometry((1, 8, 6), (1, 2, 1), (1, 3, 2), 0.1),
    "size1-last": Geometry((6, 5, 1), (2, 1, 1), (3, 2, 1), 0.1),
    "pn-eq-in": Geometry((2, 6, 5), (2, 2, 1), (2, 3, 2), 0.1),
    "pn-not-dividing": Geometry((7, 5, 6), (3, 1, 2), (3, 2, 2), 0.1),
    "pn-not-dividing-two-modes": Geometry((5, 7, 4), (2, 3, 1), (2, 3, 2), 0.1),
    "4-way": Geometry((5, 4, 6, 3), (1, 2, 1, 2), (3, 2, 3, 2), 0.1),
    "5-way": Geometry((4, 3, 5, 3, 4), (2, 1, 1, 1, 2), (2, 2, 3, 2, 2), 0.1),
    **{f"selftest-{name}": _selftest(name) for name in sorted(WORKLOADS)},
}


def _compress(comm, x, grid, method, kw):
    dt = DistTensor.from_global(CartGrid(comm, grid), x)
    t = dist_sthosvd(dt, method=method, **kw)
    return t.to_tucker(), t.eigenvalues, t.error_estimate(), t.mode_order


@pytest.mark.parametrize("run", ["tol", "ranks"])
@pytest.mark.parametrize("method", ["gram", "svd"])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_driver_meets_the_paper_invariants(name, method, run):
    geo = GEOMETRIES[name]
    x = geo.tensor()
    kw = {"tol": geo.tol} if run == "tol" else {"ranks": geo.ranks}
    float64 = suite_compute_dtype() == "float64"
    results = spmd(prod(geo.grid), _compress, x, geo.grid, method, kw)
    tucker, eigenvalues, estimate, order = results[0]
    err = float(np.linalg.norm(x - tucker.reconstruct()) / np.linalg.norm(x))

    if run == "tol":
        assert err <= geo.tol * (1 + 1e-9)
    for u in tucker.factors:
        np.testing.assert_allclose(
            u.T @ u, np.eye(u.shape[1]), atol=1e-9 if float64 else 1e-5
        )
    if float64:
        # Tail sums agree with the true error to about 1e-12 here; the
        # bound leaves two orders of magnitude for other BLAS builds.
        assert abs(estimate - err) <= 1e-10 + 1e-6 * err

    ref = st_hosvd(x, mode_order=order, method=method, **kw)
    scale = max(1.0, float(np.abs(x).max()))
    if float64 or run == "ranks":
        assert tucker.ranks == ref.ranks
        np.testing.assert_allclose(
            tucker.reconstruct(), ref.reconstruct(),
            rtol=0, atol=recon_atol(1e-9) * scale,
        )
    else:
        # A narrowed sweep may keep more directions, never fewer.
        assert all(r >= rr for r, rr in zip(tucker.ranks, ref.ranks))
    if float64:
        for got, want in zip(eigenvalues, ref.eigenvalues):
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-10 * float(np.sum(x * x))
            )
    # Every rank holds the same gathered result.
    for other, *_ in results[1:]:
        assert other.ranks == tucker.ranks
        np.testing.assert_array_equal(other.core, tucker.core)


def test_more_ranks_than_a_mode_has_items_is_refused():
    x = low_rank_tensor((3, 8, 6), (2, 3, 2), seed=45, noise=0.01)
    with pytest.raises(SpmdError) as info:
        spmd(4, _compress, x, (4, 1, 1), "gram", {"ranks": (3, 3, 2)})
    failures = info.value.failures
    assert sorted(failures) == [0, 1, 2, 3]
    for exc in failures.values():
        assert isinstance(exc, ValueError)
        assert str(exc) == "cannot split 3 items into 4 non-empty blocks"
