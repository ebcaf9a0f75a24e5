"""Symmetric eigensolver kernel and epsilon-driven rank selection.

The paper computes factor matrices as the leading eigenvectors of the mode-n
Gram matrix (dsyevx in LAPACK; here ``numpy.linalg.eigh``, LAPACK's
divide-and-conquer ``syevd``), and inside
ST-HOSVD chooses the reduced dimension ``R_n`` on the fly as

    ``R_n = min R such that sum_{r > R} lambda_r(S) <= eps^2 ||X||^2 / N``

(Alg. 1, line 5).  Eigenvalues are returned in decreasing order; eigenvector
signs are fixed deterministically (largest-magnitude entry positive) so that
sequential and distributed runs of the same Gram matrix produce identical
factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EigResult:
    """Sorted eigendecomposition of a symmetric PSD matrix.

    Attributes
    ----------
    values:
        Eigenvalues in decreasing order, clipped below at 0 (Gram matrices
        are PSD; tiny negative values are roundoff).
    vectors:
        Corresponding eigenvectors as columns, sign-normalized.
    """

    values: np.ndarray
    vectors: np.ndarray

    def leading(self, rank: int) -> np.ndarray:
        """The first ``rank`` eigenvectors as an ``n x rank`` matrix."""
        if not 1 <= rank <= self.vectors.shape[1]:
            raise ValueError(
                f"rank {rank} out of range [1, {self.vectors.shape[1]}]"
            )
        return np.array(self.vectors[:, :rank], copy=True)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-|.| entry of every column positive (deterministic)."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(s: np.ndarray) -> EigResult:
    """Full symmetric eigendecomposition, sorted by decreasing eigenvalue.

    Always solved in float64: the eigenproblem is rank-local and cheap, so
    even the float32 kernel path upcasts its Gram matrix here (the
    mixed-precision contract narrows only the bandwidth-carrying kernels).
    The symmetry gate scales with the *input* precision — a float32 Gram
    matrix is symmetric only to float32 roundoff.
    """
    s_in = np.asarray(s)
    sym_atol = 1e-4 if s_in.dtype == np.float32 else 1e-8
    s = np.asarray(s_in, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.allclose(s, s.T, atol=sym_atol * max(1.0, float(np.abs(s).max(initial=0.0)))):
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(s)
    order = np.argsort(values)[::-1]
    values = np.clip(values[order], 0.0, None)
    vectors = _fix_signs(vectors[:, order])
    return EigResult(values=values, vectors=vectors)


def rank_from_tolerance(values: np.ndarray, threshold: float) -> int:
    """Smallest ``R >= 1`` with ``sum_{r > R} values[r] <= threshold``.

    ``values`` must be sorted decreasing.  This is Alg. 1 line 5; the
    returned rank never exceeds ``len(values)`` and is at least 1 (an empty
    factor matrix is never useful).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("eigenvalues must be a 1-D array")
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    n = values.shape[0]
    tail = np.zeros(n + 1, dtype=np.float64)
    tail[:n] = np.cumsum(values[::-1])[::-1]
    # tail[r] = error of keeping r leading eigenvalues; find smallest r with
    # tail[r] <= threshold.
    for r in range(n + 1):
        if tail[r] <= threshold:
            return max(1, r)
    return n  # pragma: no cover - tail[n] == 0 <= threshold always triggers

