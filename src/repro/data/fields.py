"""Multiway field synthesis with prescribed per-mode spectral decay.

Combustion DNS data is smooth in space, strongly correlated across chemical
species, and coherent in time; its compressibility under Tucker is entirely
captured by how fast the eigenvalues of each mode-n Gram matrix decay
(paper Sec. VII-B, Fig. 6).  :func:`multiway_field` constructs

    ``X = G x_1 B^(1) x_2 B^(2) ... x_N B^(N)  +  sigma * noise``

where each ``B^(n)`` is a smooth orthonormal basis (type-II DCT — low
columns are large-scale structures, high columns fine scales) and the core
``G`` is elementwise standard normal *scaled by separable per-mode decay
weights* ``w_n(i)``.  Because the ``B^(n)`` are orthonormal, the mode-n
Gram spectrum of the noiseless field is governed by ``w_n(i)^2``, giving
direct control over each dataset's mode-wise error curves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.ttm import multi_ttm
from repro.util.seeding import rng_for
from repro.util.validation import check_shape_like


def dct_basis(n: int) -> np.ndarray:
    """Orthonormal type-II DCT basis of size ``n x n``.

    Column ``k`` oscillates with frequency ``k``: column 0 is constant
    (the mean structure), low columns are smooth large-scale modes, high
    columns fine-scale content — a reasonable cartoon of turbulent fields.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    i = np.arange(n)
    k = np.arange(n)
    basis = np.cos(np.pi * (i[:, None] + 0.5) * k[None, :] / n)
    basis[:, 0] *= np.sqrt(1.0 / n)
    basis[:, 1:] *= np.sqrt(2.0 / n)
    return basis


def decay_profile(
    n: int, kind: str = "power", rate: float = 1.0, floor: float = 0.0
) -> np.ndarray:
    """Per-index weights ``w(i)`` controlling a mode's spectral decay.

    ``kind="power"``: ``w(i) = (i + 1)^(-rate)``;
    ``kind="exp"``:   ``w(i) = exp(-rate * i)``.
    ``floor`` adds an additive noise floor, bounding compressibility from
    below (real data never decays to exactly zero).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if rate < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    if floor < 0:
        raise ValueError(f"floor must be non-negative, got {floor}")
    i = np.arange(n, dtype=np.float64)
    if kind == "power":
        w = (i + 1.0) ** (-rate)
    elif kind == "exp":
        w = np.exp(-rate * i)
    else:
        raise ValueError(f"unknown decay kind {kind!r}")
    return w + floor


def multiway_field(
    shape: Sequence[int],
    profiles: Sequence[np.ndarray],
    seed: int = 0,
    noise: float = 0.0,
    smooth_modes: Sequence[bool] | None = None,
    bursts: int = 0,
    burst_amplitude: float = 5.0,
) -> np.ndarray:
    """Synthesize a multiway field with per-mode spectral decay ``profiles``.

    Parameters
    ----------
    shape:
        Tensor dimensions ``I_1 x ... x I_N``.
    profiles:
        One weight vector ``w_n`` of length ``I_n`` per mode (see
        :func:`decay_profile`).
    seed:
        Seed for the random core (and noise).
    noise:
        Standard deviation of additive white noise, *relative to the
        signal's elementwise RMS* (so ``noise=1e-6`` bounds the data's
        compressibility at roughly six decades regardless of scale).
    smooth_modes:
        Per mode, whether to use the smooth DCT basis (spatial/temporal
        modes) or a random orthonormal basis (species-like modes).
        Defaults to all smooth.
    bursts:
        Number of localized high-amplitude events to superimpose.
        Combustion data is "bursty, with important activity occurring in
        subsets of the spatial grid, small points in time" (paper Sec. I);
        bursts give the synthetic data the heavy-tailed maximum-elementwise
        errors Table II reports for real data.  Each burst is a separable
        product of narrow Gaussian bumps, one per mode.
    burst_amplitude:
        Peak amplitude of each burst, in units of the field's RMS.
    """
    shape = check_shape_like(shape, "shape")
    n_modes = len(shape)
    if len(profiles) != n_modes:
        raise ValueError(f"need {n_modes} profiles, got {len(profiles)}")
    if smooth_modes is None:
        smooth_modes = [True] * n_modes
    if len(smooth_modes) != n_modes:
        raise ValueError("smooth_modes must have one entry per mode")

    rng = rng_for(seed, "multiway_field_core", shape)
    core = rng.standard_normal(shape)
    for n, w in enumerate(profiles):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (shape[n],):
            raise ValueError(
                f"profile {n} has shape {w.shape}, expected ({shape[n]},)"
            )
        if np.any(w < 0):
            raise ValueError(f"profile {n} has negative weights")
        core *= w.reshape((1,) * n + (-1,) + (1,) * (n_modes - 1 - n))

    bases = []
    for n in range(n_modes):
        if smooth_modes[n]:
            bases.append(dct_basis(shape[n]))
        else:
            basis_rng = rng_for(seed, "multiway_field_basis", n, shape[n])
            q, _ = np.linalg.qr(basis_rng.standard_normal((shape[n], shape[n])))
            bases.append(q)
    # The modes in increasing order, explicitly: the sequence defines the
    # data, whatever order reconstruction prefers.
    x = multi_ttm(core, bases, transpose=False, order=range(n_modes))

    if bursts < 0:
        raise ValueError(f"bursts must be non-negative, got {bursts}")
    if bursts > 0:
        if burst_amplitude <= 0:
            raise ValueError(
                f"burst_amplitude must be positive, got {burst_amplitude}"
            )
        burst_rng = rng_for(seed, "multiway_field_bursts", shape)
        rms = float(np.sqrt(np.mean(x**2)))
        for _ in range(bursts):
            bump = np.ones((1,) * n_modes)
            for n, size in enumerate(shape):
                center = burst_rng.uniform(0, size)
                width = max(1.0, 0.03 * size)
                i = np.arange(size, dtype=np.float64)
                profile_1d = np.exp(-0.5 * ((i - center) / width) ** 2)
                bump = bump * profile_1d.reshape(
                    (1,) * n + (-1,) + (1,) * (n_modes - 1 - n)
                )
            sign = 1.0 if burst_rng.random() < 0.5 else -1.0
            x = x + sign * burst_amplitude * rms * bump

    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    if noise > 0:
        noise_rng = rng_for(seed, "multiway_field_noise", shape)
        rms = float(np.sqrt(np.mean(x**2)))
        x = x + noise * rms * noise_rng.standard_normal(shape)
    return np.asfortranarray(x)
