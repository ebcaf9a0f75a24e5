"""The benchmark's distributed runs agree with ``core.sthosvd`` at their
self-test shapes.

``bench/run.py --selftest`` checks each workload at its small
``selftest_shape``: a two-rank run on the grid ``choose_grid`` picks must
take ``core.sthosvd``'s mode order and reconstruct what it reconstructs
to 1e-10 of ``||X||``.  This runs that check on the thread backend, one
``dist_sthosvd`` call per workload, so a grid rule that moves the planned
order on one of those shapes fails here and not only in the self-test.
"""

import numpy as np
import pytest

import repro.data
from bench.workloads import N_RANKS, TOL, WORKLOADS
from repro.core import sthosvd
from repro.distributed import DistTensor, choose_grid, dist_sthosvd
from repro.mpi import CartGrid, run_spmd


def _compress(comm, x, grid, method):
    dt = DistTensor.from_global(CartGrid(comm, grid), x)
    t = dist_sthosvd(dt, tol=TOL, method=method, compute_dtype="float64")
    return t.mode_order, t.to_tucker()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_ranks_take_the_sequential_order_and_reconstruction(name):
    workload = WORKLOADS[name]
    shape = workload.selftest_shape
    x = getattr(repro.data, workload.proxy)(shape=shape).tensor
    x, _ = repro.data.center_and_scale(x, workload.species_mode)
    x = np.asfortranarray(x)
    grid = choose_grid(N_RANKS, shape)
    sequential = sthosvd(x, tol=TOL, method=workload.method)
    (order, tucker), _ = run_spmd(
        N_RANKS, _compress, x, grid, workload.method, backend="thread",
        timeout=60.0,
    ).values
    assert order == sequential.mode_order, grid
    assert tucker.ranks == sequential.ranks
    gap = tucker.reconstruct() - sequential.decomposition.reconstruct()
    assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(x)
