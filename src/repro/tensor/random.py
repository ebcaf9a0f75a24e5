"""Seeded random tensor factories used by tests, examples, and benchmarks.

Includes the exact-low-multilinear-rank construction used for the paper's
synthetic performance experiments (Sec. VIII-C: "synthetic data ... formed
from a Tucker decomposition with core dimensions ..."): a random core tensor
multiplied by random orthonormal factors, optionally plus white noise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.ttm import multi_ttm
from repro.util.seeding import rng_for
from repro.util.validation import check_shape_like


def random_tensor(shape: Sequence[int], seed: int = 0) -> np.ndarray:
    """Standard-normal tensor with a deterministic stream per (shape, seed)."""
    shape = check_shape_like(shape)
    rng = rng_for(seed, "random_tensor", shape)
    return np.asfortranarray(rng.standard_normal(shape))


def random_factor(n_rows: int, n_cols: int, seed: int = 0) -> np.ndarray:
    """Random matrix with orthonormal columns (``n_rows x n_cols``)."""
    if n_cols > n_rows:
        raise ValueError(
            f"cannot build {n_cols} orthonormal columns of length {n_rows}"
        )
    rng = rng_for(seed, "random_factor", n_rows, n_cols)
    q, r = np.linalg.qr(rng.standard_normal((n_rows, n_cols)))
    # Fix signs so the factory is deterministic under LAPACK variation.
    return q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def low_rank_tensor(
    shape: Sequence[int],
    ranks: Sequence[int],
    seed: int = 0,
    noise: float = 0.0,
) -> np.ndarray:
    """Tensor of exact multilinear rank ``ranks`` (plus optional noise).

    Built as ``G x {U^(n)}`` with a standard-normal core ``G`` of size
    ``ranks`` and orthonormal factors, the construction of the paper's
    synthetic scaling datasets.  ``noise`` adds white Gaussian noise of the
    given elementwise standard deviation, making the tensor full-rank but
    numerically low-rank — useful for exercising epsilon-truncation.
    """
    shape = check_shape_like(shape)
    ranks = check_shape_like(ranks, "ranks")
    if len(ranks) != len(shape):
        raise ValueError(f"ranks {ranks} and shape {shape} differ in order")
    for r, s in zip(ranks, shape):
        if r > s:
            raise ValueError(f"rank {r} exceeds dimension {s}")
    core = random_tensor(ranks, seed=seed)
    factors = [
        random_factor(s, r, seed=seed + 17 * (i + 1))
        for i, (s, r) in enumerate(zip(shape, ranks))
    ]
    # The modes in increasing order, explicitly: the sequence defines the
    # data, whatever order reconstruction prefers.
    x = multi_ttm(core, factors, transpose=False, order=range(len(shape)))
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    if noise > 0:
        rng = rng_for(seed, "low_rank_tensor_noise", shape, ranks)
        x = x + noise * rng.standard_normal(shape)
    return np.asfortranarray(x)
