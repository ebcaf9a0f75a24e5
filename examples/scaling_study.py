#!/usr/bin/env python3
"""Strong/weak scaling study with the alpha-beta-gamma model (paper Sec. VIII).

Regenerates, at paper scale, the predictions behind Figs. 9a and 9b using
the analytic cost model (the physical Cray is simulated by that model),
and validates the model's grid preferences at small scale by actually
executing the simulated-MPI ST-HOSVD and reading its cost ledger.

Run:  python examples/scaling_study.py
"""

from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, run_spmd
from repro.perfmodel import EDISON_CALIBRATED, strong_scaling_curve, weak_scaling_curve
from repro.tensor import low_rank_tensor


def strong_scaling() -> None:
    print("=" * 68)
    print("Strong scaling: 200^4 tensor -> 20^4 core  (cf. paper Fig. 9a)")
    print("=" * 68)
    procs = [24 * 2**k for k in range(10)]
    points = strong_scaling_curve((200,) * 4, (20,) * 4, procs, EDISON_CALIBRATED)
    print(f"{'nodes':>6s}{'cores':>8s}{'grid':>16s}{'ST-HOSVD':>12s}{'HOOI iter':>12s}")
    for k, pt in enumerate(points):
        grid = "x".join(map(str, pt.grid))
        print(f"{2**k:>6d}{pt.n_procs:>8d}{grid:>16s}"
              f"{pt.sthosvd_time:>11.3f}s{pt.hooi_time:>11.3f}s")
    t0, t512 = points[0].sthosvd_time, points[-1].sthosvd_time
    print(f"\nmodeled: {t0:.2f} s on one node (paper: ~3 s), speedup "
          f"{t0 / t512:.0f}x to 512 nodes.\npaper measured ~20x with "
          f"saturation past 256 nodes — system effects beyond the\n"
          f"alpha-beta-gamma + BLAS-efficiency model.")


def weak_scaling() -> None:
    print()
    print("=" * 68)
    print("Weak scaling: (200k)^4 tensor, 24 k^4 cores  (cf. paper Fig. 9b)")
    print("=" * 68)
    points = weak_scaling_curve(range(1, 7), EDISON_CALIBRATED)
    print(f"{'k':>3s}{'nodes':>7s}{'cores':>8s}{'data':>9s}"
          f"{'GF/core ST':>12s}{'GF/core HOOI':>13s}")
    for k, pt in enumerate(points, start=1):
        data_gb = (200 * k) ** 4 * 8 / 1e9
        print(f"{k:>3d}{k**4:>7d}{pt.n_procs:>8d}{data_gb:>7.0f}GB"
              f"{pt.gflops_per_core('sthosvd'):>12.2f}"
              f"{pt.gflops_per_core('hooi'):>13.2f}")
    print("\npaper: 66% of 19.2 GFLOPS peak on one node falling to 17% at "
          "1296 nodes.\nthe model reproduces single-node efficiency and "
          "HOOI < ST-HOSVD per-core rates;\nits per-core rate stays ~flat "
          "with k (the paper's decay is dominated by effects\noutside the "
          "alpha-beta-gamma model).")


def validate_grid_choice() -> None:
    print()
    print("=" * 68)
    print("Small-scale validation: measured (simulated) vs modeled grid ranking")
    print("=" * 68)
    x = low_rank_tensor((24, 24, 24, 24), (6, 6, 6, 6), seed=9, noise=1e-9)
    grids = [(1, 1, 2, 4), (1, 2, 2, 2), (2, 2, 2, 1), (4, 2, 1, 1)]
    rows = []
    for grid in grids:
        def program(comm, g=grid):
            dt = DistTensor.from_global(CartGrid(comm, g), x)
            dist_sthosvd(dt, ranks=(6, 6, 6, 6))
            return None

        res = run_spmd(8, program)
        rows.append((grid, res.ledger.modeled_time()))
    rows.sort(key=lambda r: r[1])
    for grid, t in rows:
        print(f"  grid {'x'.join(map(str, grid)):>10s}  modeled {t * 1e3:8.3f} ms")
    print("\nas in paper Sec. VIII-B, grids with P_1 = 1 win: the first "
          "(largest) Gram/TTM\npair then needs no ring exchange and no "
          "blocked reduction.")


if __name__ == "__main__":
    strong_scaling()
    weak_scaling()
    validate_grid_choice()
