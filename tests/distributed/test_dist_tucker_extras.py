"""DistTucker subtensor reconstruction and HOOI-with-SVD tests."""

import numpy as np
import pytest

from repro.distributed import DistTensor, dist_hooi, dist_sthosvd
from repro.mpi import CartGrid, SpmdError
from repro.tensor import low_rank_tensor
from tests.conftest import spmd
from tests.reference import hooi


class TestDistSubtensor:
    def test_matches_full_reconstruction(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=50, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2))
            sub = t.reconstruct_subtensor([slice(1, 5), None, 2])
            full = t.to_tucker().reconstruct()
            return np.allclose(sub.squeeze(-1), full[1:5, :, 2], atol=1e-10)

        assert all(spmd(6, prog).values)

    def test_identical_on_all_ranks(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=51, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 1, 2))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2))
            return t.reconstruct_subtensor([0, None, None])

        res = spmd(4, prog)
        for sub in res.values[1:]:
            np.testing.assert_array_equal(sub, res[0])


class TestDistHooiSvd:
    def test_svd_method_matches_gram_history(self):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=52, noise=0.1)

        def run(method):
            def prog(comm):
                g = CartGrid(comm, (2, 2, 1))
                dt = DistTensor.from_global(g, x)
                res = dist_hooi(
                    dt, ranks=(3, 2, 2), max_iterations=3,
                    improvement_tol=0.0, method=method,
                )
                return res.residual_history

            return spmd(4, prog)[0]

        gram_hist = run("gram")
        svd_hist = run("svd")
        np.testing.assert_allclose(svd_hist, gram_hist, rtol=1e-6, atol=1e-9)

    def test_svd_method_matches_reference(self):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=53, noise=0.1)
        ref = hooi(x, ranks=(3, 2, 2), iterations=2)

        def prog(comm):
            g = CartGrid(comm, (2, 1, 2))
            dt = DistTensor.from_global(g, x)
            res = dist_hooi(
                dt, ranks=(3, 2, 2), max_iterations=2,
                improvement_tol=0.0, method="svd",
            )
            return res.decomposition.to_tucker()

        for tucker in spmd(4, prog):
            np.testing.assert_allclose(
                tucker.reconstruct(), ref.reconstruct(), atol=1e-7
            )

    def test_unknown_method(self):
        x = np.zeros((4, 4))

        def prog(comm):
            g = CartGrid(comm, (2, 2))
            dt = DistTensor.from_global(g, x)
            dist_hooi(dt, ranks=(2, 2), method="lanczos")

        with pytest.raises(SpmdError, match="unknown method"):
            spmd(4, prog)
