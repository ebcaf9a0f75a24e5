#!/usr/bin/env python3
"""Laptop-style analysis of compressed data (paper Secs. II-C, VII).

The paper's motivating workflow: a simulation produces terabytes; Tucker
compression reduces them to something shippable; an analyst then extracts
*reconstructed subsets* — one species, a few time steps, a coarser grid, a
spatial window — without ever materializing the full tensor.  This example
compresses the SP proxy once and then performs four such extractions,
reporting per-extraction cost (elements touched) and accuracy.

Run:  python examples/subtensor_analysis.py
"""

from repro import normalized_rms, sthosvd
from repro.data import center_and_scale, sp_proxy


def main() -> None:
    ds = sp_proxy()
    x, scaling = center_and_scale(ds.tensor, ds.species_mode)
    result = sthosvd(x, tol=1e-3)
    t = result.decomposition
    print(f"dataset {ds.name} {ds.shape}: compressed "
          f"{t.compression_ratio:.0f}x at eps=1e-3 (ranks {t.ranks})\n")

    extractions = [
        (
            "single variable, all space/time",
            [None, None, None, 3, None],
            (slice(None), slice(None), slice(None), 3, slice(None)),
        ),
        (
            "one time step, all variables",
            [None, None, None, None, 7],
            (slice(None), slice(None), slice(None), slice(None), 7),
        ),
        (
            "coarse 2x-downsampled grid",
            [slice(0, None, 2)] * 3 + [None, None],
            (slice(0, None, 2),) * 3 + (slice(None), slice(None)),
        ),
        (
            "spatial window x last 5 steps",
            [slice(8, 24), slice(8, 24), slice(8, 24), None, slice(-5, None)],
            (slice(8, 24), slice(8, 24), slice(8, 24), slice(None), slice(-5, None)),
        ),
    ]

    full = ds.n_elements
    for label, spec, np_idx in extractions:
        sub = t.reconstruct_subtensor(spec)
        truth = x[np_idx]
        err = normalized_rms(truth, sub.reshape(truth.shape))
        print(f"{label:36s} {str(truth.shape):>22s} "
              f"({truth.size / full:7.2%} of data)  err {err:.2e}")

    print("\nevery extraction touched only the selected factor rows — the "
          "full tensor was never formed.")


if __name__ == "__main__":
    main()
