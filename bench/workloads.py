"""The four workloads: what each one is, and how its input is made.  Why
each was chosen is in ``BENCHMARK.json`` and ``README.md``.

Each is a closed loop with one caller that waits for every compression.
``--seed`` reaches only :func:`permuted`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: The paper's headline tolerance (Table II).
TOL = 1e-3

#: Ranks of the distributed workloads: the box has two cores, one BLAS
#: thread per rank.
N_RANKS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    proxy: str  # generator in repro.data
    species_mode: int
    shape: tuple[int, ...]
    selftest_shape: tuple[int, ...]
    kind: str  # "seq": core.sthosvd, "dist": run_spmd, "cli": cli.main
    method: str
    recon_batch: int = 1  # reconstruct calls per timed sample


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seq-hcci",
            "hcci_proxy", 2, (96, 96, 33, 40), (20, 16, 8, 10), "seq", "gram",
        ),
        Workload(
            "dist-sp",
            "sp_proxy", 3, (36, 36, 36, 11, 20), (20, 12, 12, 6, 8), "dist", "gram",
        ),
        # Recorded only, not in BENCHMARK.json: on a shared box its fences fall
        # into their sleep back-off for minutes at a time (compress_s 17 ms
        # or 28 to 120 ms), which no bound the contract allows can absorb.
        Workload(
            "dist-small",
            "hcci_proxy", 2, (24, 24, 16, 12), (20, 12, 8, 6), "dist", "gram",
            recon_batch=100,
        ),
        Workload(
            "cli-tjlr",
            "tjlr_proxy", 3, (20, 24, 16, 35, 16), (20, 8, 6, 7, 6), "cli", "svd",
        ),
    )
}


def base_tensor(workload: Workload, shape: tuple[int, ...], path: str) -> None:
    """Write what the workload consumes, before ``--seed`` is applied, to
    ``path``: the proxy, normalised for the sequential and distributed
    workloads (the CLI normalises its own input, ``--species-mode``)."""
    import repro.data

    dataset = getattr(repro.data, workload.proxy)(shape=shape)
    if dataset.species_mode != workload.species_mode:
        raise ValueError(f"{workload.proxy}: species mode is {dataset.species_mode}")
    x = dataset.tensor
    if workload.kind != "cli":
        x, _ = repro.data.center_and_scale(x, workload.species_mode)
    with open(path + ".tmp", "wb") as fh:
        np.save(fh, np.asfortranarray(x))
    os.replace(path + ".tmp", path)


def permuted(x: np.ndarray, seed: int) -> np.ndarray:
    """The run's input: ``seed`` draws one permutation of the indices of
    every mode of the proxy, which is built with its own fixed seed.

    A permutation changes every entry's position but no Gram spectrum and
    no species slice's mean or spread, so ranks, compression ratio and flops
    are the same for every seed: the ten-seed spread the driver takes
    measures the machine, not the draw (hcci_proxy(24,24,16,12) at
    seed=1..10 spans ratios 18.6 to 25.7).
    """
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(size) for size in x.shape]
    # One gather.  ``x`` is Fortran-ordered, so index its C-ordered transpose.
    return np.asfortranarray(x.T[np.ix_(*perms[::-1])].T)
