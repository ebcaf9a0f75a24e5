"""Mixed-precision accuracy contracts of the distributed ST-HOSVD.

Property-style sweeps over shapes, ranks and tolerances check the
error-split contract of :mod:`repro.core.precision`: ``mixed`` delivers
the user's tolerance, ``float32`` delivers the documented budget
(truncation error plus the single-precision noise floor), and outputs are
always float64 whatever the compute dtype.
"""

import numpy as np
import pytest

from repro.core.precision import (
    FLOAT32_NOISE_FLOOR,
    float32_error_budget,
    kernel_dtype,
    resolve_compute_dtype,
    split_tolerance,
)
from repro.distributed import DistTensor, dist_hooi, dist_sthosvd
from repro.mpi import CartGrid
from repro.tensor import low_rank_tensor
from tests.conftest import spmd


def _normalized_err(x, tucker):
    return float(
        np.linalg.norm(x - tucker.reconstruct()) / np.linalg.norm(x)
    )


def _factorize(x, grid, **kwargs):
    def prog(comm):
        g = CartGrid(comm, grid)
        dt = DistTensor.from_global(g, x)
        t = dist_sthosvd(dt, **kwargs)
        tucker = t.to_tucker()
        return tucker, t.error_estimate(), t.ranks

    return spmd(int(np.prod(grid)), prog)[0]


class TestPolicyHelpers:
    def test_split_tolerance_quadrature(self):
        for tol in (1e-4, 1e-2, 0.3):
            trunc, prec = split_tolerance(tol)
            assert 0 < trunc < tol and 0 < prec < tol
            assert trunc**2 + prec**2 == pytest.approx(tol**2)

    def test_float32_budget_dominates_tol_and_floor(self):
        for tol in (1e-6, 1e-3, 0.2):
            budget = float32_error_budget(tol)
            assert budget >= tol
            assert budget >= FLOAT32_NOISE_FLOOR

    def test_kernel_dtype_mapping(self):
        assert kernel_dtype("float64") == np.float64
        assert kernel_dtype("float32") == np.float32
        assert kernel_dtype("mixed") == np.float32

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown compute dtype"):
            resolve_compute_dtype("float16")


class TestMixedMeetsTolerance:
    """``mixed`` delivers ``error <= tol`` across the tolerance range."""

    @pytest.mark.parametrize(
        "shape, grid, true_ranks, tol",
        [
            ((8, 6, 4), (2, 3, 2), (3, 2, 2), 0.05),
            ((8, 6, 4), (2, 1, 2), (3, 2, 2), 1e-3),
            ((12, 8, 6), (2, 2, 1), (4, 3, 2), 1e-5),
            ((7, 5, 6), (1, 1, 2), (3, 2, 3), 1e-2),
        ],
    )
    def test_error_within_tolerance(self, shape, grid, true_ranks, tol):
        x = low_rank_tensor(shape, true_ranks, seed=31, noise=tol / 10)
        tucker, est, _ = _factorize(
            x, grid, tol=tol, compute_dtype="mixed"
        )
        assert _normalized_err(x, tucker) <= tol
        # The driver's own tail estimate honors the budget too.
        assert est <= tol

    def test_tight_tolerance_triggers_refinement(self):
        # tol far below the float32 noise floor: the precision-share gate
        # must fire and the float64 sweep must recover full accuracy.
        x = low_rank_tensor((8, 6, 4), (3, 2, 2), seed=32, noise=1e-8)
        tucker, _, _ = _factorize(
            x, (2, 3, 2), tol=1e-6, compute_dtype="mixed"
        )
        err = _normalized_err(x, tucker)
        assert err <= 1e-6
        # Well below what an unrefined float32 sweep could deliver.
        assert err < FLOAT32_NOISE_FLOOR / 10

    def test_loose_tolerance_skips_refinement(self):
        # At a loose tolerance the float32 estimate fits the precision
        # share: no float64 sweep runs, so the mixed run keeps the narrow
        # bandwidth win over float64 (modeled words, defect-measurement
        # allreduces included).
        x = low_rank_tensor((8, 6, 4), (3, 2, 2), seed=33, noise=0.02)

        def prog(comm, dtype):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, tol=0.3, compute_dtype=dtype)
            return None

        words = {
            dtype: spmd(6, prog, dtype).ledger.total_words()
            for dtype in ("mixed", "float64")
        }
        assert words["mixed"] < words["float64"]


class TestFloat32Budget:
    """Pure ``float32`` stays within the documented error budget."""

    @pytest.mark.parametrize("tol", [1e-2, 1e-4])
    def test_error_within_budget(self, tol):
        x = low_rank_tensor((8, 6, 4), (3, 2, 2), seed=41, noise=tol / 10)
        tucker, _, _ = _factorize(
            x, (2, 3, 2), tol=tol, compute_dtype="float32"
        )
        assert _normalized_err(x, tucker) <= float32_error_budget(tol)

    def test_fixed_ranks_within_noise_floor(self):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=42, noise=0.0)
        tucker, _, ranks = _factorize(
            x, (2, 3, 2), ranks=(3, 3, 2), compute_dtype="float32"
        )
        assert ranks == (3, 3, 2)
        # Exactly representable low-rank input: the only error is
        # single-precision roundoff.
        assert _normalized_err(x, tucker) <= 4 * FLOAT32_NOISE_FLOOR


class TestOutputDtypes:
    """Deliverables are float64 for every compute dtype."""

    @pytest.mark.parametrize("dtype", ["float64", "float32", "mixed"])
    def test_sthosvd_outputs_float64(self, dtype):
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=51, noise=0.02)

        def prog(comm):
            g = CartGrid(comm, (2, 1, 2))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2), compute_dtype=dtype)
            return (
                str(t.core.local.dtype),
                [str(np.asarray(f).dtype) for f in t.factors_local],
            )

        for core_dt, factor_dts in spmd(4, prog):
            assert core_dt == "float64"
            assert factor_dts == ["float64"] * 3

    @pytest.mark.parametrize("dtype", ["float32", "mixed"])
    def test_hooi_outputs_float64(self, dtype):
        x = low_rank_tensor((8, 6, 4), (4, 3, 2), seed=52, noise=0.1)

        def prog(comm):
            g = CartGrid(comm, (2, 2, 1))
            dt = DistTensor.from_global(g, x)
            res = dist_hooi(
                dt, ranks=(3, 2, 2), max_iterations=2, compute_dtype=dtype
            )
            t = res.decomposition
            return (
                str(t.core.local.dtype),
                [str(np.asarray(f).dtype) for f in t.factors_local],
            )

        for core_dt, factor_dts in spmd(4, prog):
            assert core_dt == "float64"
            assert factor_dts == ["float64"] * 3


class TestKernelDtypes:
    """Under float32 every kernel's output stays float32: a dtype-less
    allocation inside a kernel would silently widen the pipeline."""

    KERNELS = {
        "gram": {
            "dist_gram": lambda out: out,  # Gram block rows
            "dist_evecs": lambda out: out[0],  # eigenvector block rows
            "dist_ttm": lambda out: out.local,
        },
        "svd": {
            "qr_r": lambda out: out,  # QR triangle
            "dist_mode_svd": lambda out: out[0],  # factor block rows
            "dist_ttm": lambda out: out.local,
        },
    }

    @pytest.mark.parametrize("method", ["gram", "svd"])
    def test_float32_kernel_outputs(self, method, monkeypatch):
        import repro.distributed.sthosvd as driver
        import repro.distributed.tsqr as tsqr

        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=53, noise=0.02)
        seen: list[tuple[str, str]] = []

        def recording(name, kernel, output):
            def wrapper(*args, **kwargs):
                out = kernel(*args, **kwargs)
                seen.append((name, str(output(out).dtype)))
                return out

            return wrapper

        for name, output in self.KERNELS[method].items():
            module = tsqr if name == "qr_r" else driver
            monkeypatch.setattr(
                module, name, recording(name, getattr(module, name), output)
            )

        def prog(comm):
            # The closure runs on a pool forked after the patches.
            g = CartGrid(comm, (2, 1, 1))
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, tol=0.1, method=method, compute_dtype="float32")
            return list(seen)

        per_rank = spmd(2, prog).values
        for calls in per_rank:
            assert {name for name, _ in calls} == set(self.KERNELS[method])
            assert {dtype for _, dtype in calls} == {"float32"}


class TestFloat64IsBitExact:
    def test_explicit_float64_matches_default(self):
        """compute_dtype="float64" is the historical pipeline, bit for bit."""
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=61, noise=0.02)

        def prog(comm, dtype):
            g = CartGrid(comm, (2, 3, 1))
            dt = DistTensor.from_global(g, x)
            t = dist_sthosvd(dt, ranks=(3, 3, 2), compute_dtype=dtype)
            tucker = t.to_tucker()
            return (
                np.asarray(tucker.core.data).tobytes(),
                [np.asarray(f).tobytes() for f in tucker.factors],
            )

        explicit = spmd(6, prog, "float64")[0]
        default = spmd(6, prog, "float64")[0]
        assert explicit[0] == default[0]
        assert explicit[1] == default[1]

    def test_narrow_words_halve_ring_traffic(self):
        """The Gram ring ships half the modeled words under float32."""
        x = low_rank_tensor((8, 6, 4), (3, 3, 2), seed=62, noise=0.02)

        def prog(comm, dtype):
            g = CartGrid(comm, (4, 1, 1))
            dt = DistTensor.from_global(g, x)
            dist_sthosvd(dt, ranks=(4, 3, 2), compute_dtype=dtype)
            return None

        words = {}
        for dtype in ("float64", "float32"):
            res = spmd(4, prog, dtype)
            words[dtype] = res.ledger.total_words()
        assert words["float32"] < 0.75 * words["float64"]
