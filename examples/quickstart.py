#!/usr/bin/env python3
"""Quickstart: compress a combustion-like dataset with ST-HOSVD.

Mirrors the paper's basic workflow (Sec. VII): normalize the data per
species, compress to a relative-error tolerance, inspect the achieved
ranks/compression, save the compressed model, and reconstruct a subtensor
without ever forming the full reconstruction.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro import normalized_rms, sthosvd
from repro.data import center_and_scale, hcci_proxy
from repro.io import load_tucker, save_tucker, stored_bytes


def main() -> None:
    # 1. Load the HCCI proxy dataset (2-D grid x species x time) and apply
    #    the paper's per-species normalization.
    ds = hcci_proxy()
    x, scaling = center_and_scale(ds.tensor, species_mode=ds.species_mode)
    print(f"dataset : {ds.name} {ds.shape}  ({ds.n_elements * 8 / 1e6:.1f} MB)")
    print(f"          {ds.description}")

    # 2. Compress with ST-HOSVD at eps = 1e-3 (ranks chosen automatically).
    eps = 1e-3
    result = sthosvd(x, tol=eps)
    t = result.decomposition
    print(f"\ncompress: eps={eps:g}")
    print(f"  ranks            : {t.ranks}  (of {t.shape})")
    print(f"  compression ratio: {t.compression_ratio:.1f}x")
    print(f"  error (estimate) : {result.error_estimate():.3e}")
    print(f"  error (exact)    : {t.relative_error(x):.3e}")

    # 3. Save the compressed model; report on-disk size.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hcci.npz")
        save_tucker(path, t, metadata={"dataset": ds.name, "eps": eps})
        raw_mb = ds.n_elements * 8 / 1e6
        disk_mb = stored_bytes(path) / 1e6
        print(f"\nstorage : raw {raw_mb:.1f} MB -> compressed {disk_mb:.2f} MB "
              f"on disk ({raw_mb / disk_mb:.0f}x)")

        loaded, meta = load_tucker(path)
        assert meta["dataset"] == ds.name

    # 4. Reconstruct just one species at one time step — the laptop-analysis
    #    capability of paper Sec. II-C: cost scales with the subtensor.
    species, step = 4, 10
    slab = t.reconstruct_subtensor([None, None, species, step])
    truth = x[:, :, species, step]
    print(f"\npartial : species {species}, time step {step} -> "
          f"slab {slab.squeeze().shape}, "
          f"rel. err {normalized_rms(truth, slab.squeeze()):.3e}")


if __name__ == "__main__":
    main()
