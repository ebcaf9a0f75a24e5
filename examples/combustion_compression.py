#!/usr/bin/env python3
"""Compression study across the three combustion datasets (paper Sec. VII).

Sweeps the error tolerance over the paper's range (1e-6 .. 1e-2) for the
HCCI, TJLR, and SP proxies and prints:

* the compression-vs-error table behind Figs. 1b and 7;
* the Table II comparison of ST-HOSVD vs HOOI at eps = 1e-3, including the
  maximum absolute elementwise error of the normalized data.

Uses the SVD-based factor computation (the paper's Sec. IX refinement) so
tolerances near machine precision remain meaningful at proxy scale.

Run:  python examples/combustion_compression.py
"""

from repro import hooi, max_abs_error, normalized_rms, sthosvd
from repro.data import center_and_scale, hcci_proxy, sp_proxy, tjlr_proxy


def compression_sweep() -> None:
    print("=" * 72)
    print("Compression ratio vs normalized RMS error  (cf. paper Figs. 1b, 7)")
    print("=" * 72)
    epsilons = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    header = "dataset " + "".join(f"{e:>12.0e}" for e in epsilons)
    print(header)
    for build in (hcci_proxy, tjlr_proxy, sp_proxy):
        ds = build()
        x, _ = center_and_scale(ds.tensor, ds.species_mode)
        ratios = []
        for eps in epsilons:
            r = sthosvd(x, tol=eps, method="svd")
            ratios.append(r.decomposition.compression_ratio)
        print(f"{ds.name:8s}" + "".join(f"{c:12.1f}" for c in ratios))
    print("\npaper (Fig. 7, full-size data): TJLR 2 -> 37, HCCI in between, "
          "SP 5 -> 5580 over the same range;\nproxies reproduce the ordering "
          "and slopes at laptop scale (smaller dims cap the extremes).")


def table2() -> None:
    print()
    print("=" * 72)
    print("ST-HOSVD vs HOOI at eps = 1e-3  (cf. paper Table II)")
    print("=" * 72)
    print(f"{'dataset':8s}{'reduced dims':>26s}{'ST RMS':>10s}{'ST max':>9s}"
          f"{'HOOI RMS':>10s}{'HOOI max':>9s}{'C':>7s}")
    for build in (hcci_proxy, tjlr_proxy, sp_proxy):
        ds = build()
        x, _ = center_and_scale(ds.tensor, ds.species_mode)
        st = sthosvd(x, tol=1e-3)
        ho = hooi(x, init=st, max_iterations=5)
        st_rec = st.decomposition.reconstruct()
        ho_rec = ho.decomposition.reconstruct()
        print(
            f"{ds.name:8s}{str(st.ranks):>26s}"
            f"{normalized_rms(x, st_rec):>10.2e}{max_abs_error(x, st_rec):>9.2f}"
            f"{normalized_rms(x, ho_rec):>10.2e}{max_abs_error(x, ho_rec):>9.2f}"
            f"{st.decomposition.compression_ratio:>7.0f}"
        )
    print("\npaper Table II: HOOI's improvement over ST-HOSVD is negligible "
          "for this application,\nso ST-HOSVD alone suffices — the same "
          "conclusion holds for the proxies.")


if __name__ == "__main__":
    compression_sweep()
    table2()
