"""Eigensolver kernel and rank-selection tests (Alg. 1 line 5)."""

import numpy as np
import pytest

import repro.data
from repro.core import sthosvd
from repro.tensor import (
    eigendecompose,
    gram,
    rank_from_tolerance,
)
from tests import reference


def _spd_matrix(rng, n, eigenvalues=None):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if eigenvalues is None:
        eigenvalues = np.sort(rng.uniform(0.1, 10, n))[::-1]
    return q @ np.diag(eigenvalues) @ q.T, np.asarray(eigenvalues, float)


class TestEigendecompose:
    def test_recovers_spectrum(self, rng):
        s, lam = _spd_matrix(rng, 8)
        eig = eigendecompose(s)
        np.testing.assert_allclose(eig.values, np.sort(lam)[::-1], atol=1e-8)

    def test_decreasing_order(self, rng):
        eig = eigendecompose(_spd_matrix(rng, 10)[0])
        assert np.all(np.diff(eig.values) <= 1e-12)

    def test_eigen_equation(self, rng):
        s, _ = _spd_matrix(rng, 6)
        eig = eigendecompose(s)
        np.testing.assert_allclose(
            s @ eig.vectors, eig.vectors * eig.values, atol=1e-8
        )

    def test_orthonormal_vectors(self, rng):
        eig = eigendecompose(_spd_matrix(rng, 7)[0])
        np.testing.assert_allclose(
            eig.vectors.T @ eig.vectors, np.eye(7), atol=1e-10
        )

    def test_deterministic_signs(self, rng):
        s, _ = _spd_matrix(rng, 5)
        a = eigendecompose(s).vectors
        b = eigendecompose(s.copy()).vectors
        np.testing.assert_array_equal(a, b)
        # Largest-|entry| of each column is positive.
        for col in a.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_negative_roundoff_clipped(self, rng):
        # A singular PSD matrix may produce tiny negative eigenvalues.
        v = rng.standard_normal((6, 2))
        eig = eigendecompose(v @ v.T)
        assert np.all(eig.values >= 0)

    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(ValueError, match="not symmetric"):
            eigendecompose(rng.standard_normal((4, 4)))

    def test_rejects_nonsquare(self, rng):
        with pytest.raises(ValueError, match="square"):
            eigendecompose(rng.standard_normal((3, 4)))


class TestAgainstOtherSolvers:
    """The solver is NumPy's ``eigh`` (LAPACK ``syevd``)."""

    def test_matches_the_reference(self, rng):
        x = rng.standard_normal((9, 5, 4))
        for mode in range(x.ndim):
            vectors, values = reference.leading(x, mode, rank=x.shape[mode])
            eig = eigendecompose(gram(x, mode))
            np.testing.assert_allclose(
                eig.values, values, rtol=0, atol=1e-12 * values[0]
            )
            # The same columns up to sign, each with its largest-|entry|
            # positive.
            signs = np.sign(np.sum(eig.vectors * vectors, axis=0))
            np.testing.assert_allclose(eig.vectors, vectors * signs, atol=1e-10)
            rows = np.argmax(np.abs(eig.vectors), axis=0)
            assert np.all(eig.vectors[rows, np.arange(x.shape[mode])] > 0)

    @pytest.mark.parametrize(
        "proxy, shape",
        [("hcci_proxy", (24, 24, 16, 12)), ("sp_proxy", (16, 16, 16, 11, 10))],
    )
    def test_ranks_match_the_scipy_solver(self, proxy, shape, monkeypatch):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        data = getattr(repro.data, proxy)(shape=shape)
        x, _ = repro.data.center_and_scale(data.tensor, data.species_mode)
        ours = sthosvd(x, tol=1e-3)
        monkeypatch.setattr(np.linalg, "eigh", scipy_linalg.eigh)
        theirs = sthosvd(x, tol=1e-3)
        assert ours.ranks == theirs.ranks
        assert ours.mode_order == theirs.mode_order
        assert ours.error_estimate() == pytest.approx(
            theirs.error_estimate(), rel=1e-8
        )


class TestRankFromTolerance:
    def test_exact_thresholds(self):
        values = np.array([4.0, 2.0, 1.0, 0.5])
        # tails: r=0 -> 7.5, r=1 -> 3.5, r=2 -> 1.5, r=3 -> 0.5, r=4 -> 0.
        assert rank_from_tolerance(values, 3.5) == 1
        assert rank_from_tolerance(values, 3.4) == 2
        assert rank_from_tolerance(values, 0.5) == 3
        assert rank_from_tolerance(values, 0.0) == 4

    def test_huge_threshold_keeps_one(self):
        assert rank_from_tolerance(np.array([1.0, 0.1]), 100.0) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            rank_from_tolerance(np.array([1.0]), -1.0)

    def test_rejects_matrix(self, rng):
        with pytest.raises(ValueError):
            rank_from_tolerance(rng.standard_normal((2, 2)), 1.0)


class TestEigResultLeading:
    """``EigResult.leading``: how the Gram path (Alg. 5) and the SVD path
    take their factor from a decomposition."""

    def test_by_rank(self, rng):
        s, _ = _spd_matrix(rng, 6)
        eig = eigendecompose(s)
        u = eig.leading(3)
        assert u.shape == (6, 3)
        np.testing.assert_array_equal(u, eig.vectors[:, :3])
        assert not np.shares_memory(u, eig.vectors)

    def test_rank_out_of_range(self, rng):
        s, _ = _spd_matrix(rng, 4)
        eig = eigendecompose(s)
        with pytest.raises(ValueError):
            eig.leading(5)
        with pytest.raises(ValueError):
            eig.leading(0)
