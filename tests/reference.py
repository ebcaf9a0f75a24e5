"""Textbook ST-HOSVD (Alg. 1) and HOOI (Alg. 2), the oracle for the drivers.

Written from the definitions, in the style of
``tests/tensor/test_kernel_layout.py``: every step materialises the
unfolding, multiplies it and folds it back, and every factor is the leading
eigenvectors of ``Y_(n) Y_(n)^T`` from ``np.linalg.eigh`` (or the left
singular vectors of ``Y_(n)`` from ``np.linalg.svd``).  Nothing here runs a
``repro`` kernel or driver, so an agreement with it is an agreement with
the paper's algorithms.  Eigenvector signs are arbitrary: compare
reconstructions, ranks, spectra and fit histories, to a tolerance.
"""

from types import SimpleNamespace

import numpy as np

from repro.tensor import fold, unfold


def leading(y, mode, rank=None, threshold=None, method="gram"):
    """``(U, eigenvalues)`` of mode ``mode``: a prescribed ``rank``, or the
    smallest one whose discarded eigenvalue tail is at most ``threshold``."""
    mat = unfold(y, mode)
    if method == "svd":
        # Only a tall unfolding needs the full U (its trailing columns span
        # the null space of Y_(n)^T); a wide one's U is square either way.
        vectors, sing, _ = np.linalg.svd(mat, full_matrices=mat.shape[0] > mat.shape[1])
        values = np.zeros(mat.shape[0])
        values[: sing.size] = sing**2
    else:
        values, vectors = np.linalg.eigh(mat @ mat.T)
        values, vectors = np.clip(values[::-1], 0.0, None), vectors[:, ::-1]
    if rank is None:
        tails = np.append(np.cumsum(values[::-1])[::-1], 0.0)
        rank = max(1, int(np.argmax(tails <= threshold)))
    return vectors[:, :rank], values


def ttm(y, v, mode):
    """``Y x_n V`` by the definition ``Z_(n) = V Y_(n)``."""
    shape = list(y.shape)
    shape[mode] = v.shape[0]
    return fold(v @ unfold(y, mode), mode, shape)


def reconstruct(core, factors):
    for n, u in enumerate(factors):
        core = ttm(core, u, n)
    return core


def st_hosvd(x, tol=None, ranks=None, mode_order=None, method="gram"):
    """Alg. 1: core, factors, per-mode spectra, ranks and the tail estimate."""
    x = np.asarray(x, dtype=np.float64)
    order = range(x.ndim) if mode_order is None else mode_order
    norm_sq = float(np.sum(x * x))
    threshold = None if tol is None else tol**2 * norm_sq / x.ndim
    factors, values = [None] * x.ndim, [None] * x.ndim
    y = x
    for n in order:
        factors[n], values[n] = leading(
            y, n, None if ranks is None else ranks[n], threshold, method
        )
        y = ttm(y, factors[n].T, n)
    tail = sum(float(np.sum(v[u.shape[1]:])) for u, v in zip(factors, values))
    return SimpleNamespace(
        core=y, factors=factors, eigenvalues=values, ranks=y.shape,
        error_estimate=np.sqrt(tail / norm_sq),
        reconstruct=lambda: reconstruct(y, factors),
    )


def hooi(x, ranks, iterations):
    """Alg. 2 from the reference ST-HOSVD, ``iterations`` full sweeps: the
    decomposition and the fit history ``||X||^2 - ||G||^2``."""
    x = np.asarray(x, dtype=np.float64)
    init = st_hosvd(x, ranks=ranks)
    core, factors = init.core, list(init.factors)
    norm_sq = float(np.sum(x * x))
    history = [norm_sq - float(np.sum(core * core))]
    for _ in range(iterations):
        for n in range(x.ndim):
            y = x
            for m in range(x.ndim):
                if m != n:
                    y = ttm(y, factors[m].T, m)
            factors[n], _ = leading(y, n, ranks[n])
        core = ttm(y, factors[-1].T, x.ndim - 1)
        history.append(norm_sq - float(np.sum(core * core)))
    return SimpleNamespace(
        core=core, factors=factors, residual_history=history,
        reconstruct=lambda: reconstruct(core, factors),
    )
