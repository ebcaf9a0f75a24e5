"""Fig. 9a: strong scaling of ST-HOSVD and one HOOI iteration.

Paper experiment: 200^4 tensor (256 GB) compressed to a 20^4 core on
24 * 2^k cores, k = 0..9, best of several grids per point.  Claims
reproduced with the calibrated model:

* single-node ST-HOSVD takes ~3 s (the paper's headline number);
* times decrease monotonically through 256 nodes (paper: improvements
  continue up to 256 nodes);
* parallel efficiency decays as P grows (far-from-linear speedup at the
  high end);
* one HOOI iteration costs the same order as ST-HOSVD.

A small instance is also executed on the simulator at P = 1..16 to verify
measured modeled-time speedups.
"""


from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, resolve_backend, run_spmd
from repro.perfmodel import EDISON_CALIBRATED, strong_scaling_curve
from repro.tensor import low_rank_tensor

from benchmarks.conftest import table


def test_fig9a_model_at_paper_scale(benchmark):
    procs = [24 * 2**k for k in range(10)]
    points = benchmark.pedantic(
        lambda: strong_scaling_curve(
            (200,) * 4, (20,) * 4, procs, EDISON_CALIBRATED
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for k, pt in enumerate(points):
        rows.append(
            [
                2**k,
                pt.n_procs,
                "x".join(map(str, pt.grid)),
                pt.sthosvd_time,
                pt.hooi_time,
            ]
        )
    table(
        "Fig. 9a: strong scaling 200^4 -> 20^4 (modeled, best grid per P)",
        ["nodes", "cores", "grid", "ST-HOSVD s", "HOOI iter s"],
        rows,
    )
    print("paper: ~3 s on one node; time decreasing through 256 nodes")

    st_times = [p.sthosvd_time for p in points]
    # Headline: ~3 s on one node (within 2x given the calibration).
    assert 1.5 < st_times[0] < 6.0
    # Monotone decrease through 256 nodes (index 8).
    assert all(b < a for a, b in zip(st_times[:9], st_times[1:9]))
    # Efficiency decays: speedup at 512 nodes is far below ideal 512x...
    speedup = st_times[0] / st_times[-1]
    assert speedup < 0.7 * 512
    # ...but scaling is still useful (>10x).
    assert speedup > 10
    # HOOI iteration within 3x of ST-HOSVD at every point.
    for pt in points:
        assert pt.hooi_time < 3 * pt.sthosvd_time


def _sthosvd_prog(comm, x, grid, ranks):
    """Module-level SPMD program: picklable by reference, so the process
    backend dispatches it to the persistent rank pool instead of forking."""
    g = CartGrid(comm, grid)
    dt = DistTensor.from_global(g, x)
    dist_sthosvd(dt, ranks=ranks)
    return None


def test_fig9a_simulator_small_scale(benchmark):
    # Large enough that compute dominates communication at small P — a
    # 16^4 tensor is communication-bound already at P = 4 and would not
    # strong-scale even in the paper's model.
    x = low_rank_tensor((32, 32, 32, 32), (8, 8, 8, 8), seed=13, noise=1e-6)
    configs = [(1, (1, 1, 1, 1)), (4, (1, 1, 2, 2)), (16, (1, 2, 2, 4))]

    def run_all():
        out = []
        for p, grid in configs:
            res = run_spmd(p, _sthosvd_prog, x, grid, (8, 8, 8, 8))
            out.append((p, res.ledger.modeled_time()))
        return out

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[p, t * 1e3, times[0][1] / t] for p, t in times]
    backend = resolve_backend(None).name
    table(
        f"Fig. 9a validation: simulated strong scaling 32^4 -> 8^4 "
        f"[{backend} backend]",
        ["cores", "modeled ms", "speedup"],
        rows,
    )
    print(f"spmd executor backend: {backend}")
    # More processors -> less modeled time, with sub-linear speedup.
    assert times[0][1] > times[1][1] > times[2][1]
    assert times[0][1] / times[2][1] < 16
