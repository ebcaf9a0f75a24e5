"""Fig. 9b: weak scaling — GFLOPS per core as problem and machine grow.

Paper experiment: (200k)^4 tensors on 24 k^4 cores (k = 1..6; 12 GB to
15 TB of data), best of three grid shapes per point.  Claims reproduced:

* single-node efficiency ~2/3 of peak for ST-HOSVD (paper: 66%);
* HOOI runs at materially lower per-core rates than ST-HOSVD everywhere
  (paper: 43% vs 66% on one node);
* the 15 TB point (k = 6) is processed in about a minute of modeled time
  (paper: 70 s for ST-HOSVD + HOOI on data in memory).

Divergence disclosed: the paper measures per-core rates *decaying* to 17%
at 1296 nodes; the alpha-beta-gamma + BLAS-surrogate model keeps ST-HOSVD
rates roughly flat (its dominant first-mode GEMM grows with k).  The decay
is attributed by the paper to grid-tradeoff and system effects outside
this model — disclosed here rather than asserted away.
"""


from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, resolve_backend, run_spmd
from repro.perfmodel import EDISON_CALIBRATED, weak_scaling_curve
from repro.tensor import low_rank_tensor

from benchmarks.conftest import table

PEAK = 19.2  # GFLOPS per Edison core

PAPER_EFFICIENCY = {1: (0.66, 0.43), 6: (0.17, 0.12)}  # k: (ST, HOOI)


def test_fig9b_model_at_paper_scale(benchmark):
    points = benchmark.pedantic(
        lambda: weak_scaling_curve(range(1, 7), EDISON_CALIBRATED),
        rounds=1,
        iterations=1,
    )

    rows = []
    for k, pt in enumerate(points, start=1):
        st = pt.gflops_per_core("sthosvd")
        ho = pt.gflops_per_core("hooi")
        data_tb = (200 * k) ** 4 * 8 / 1e12
        rows.append([k, pt.n_procs, data_tb, st, ho])
    table(
        "Fig. 9b: weak scaling (200k)^4 -> (20k)^4 (modeled, best of the "
        "paper's 3 grids)",
        ["k", "cores", "data TB", "GF/core ST", "GF/core HOOI"],
        rows,
    )
    print("paper: 12.7 (66%) -> 3.3 (17%) GF/core for ST-HOSVD; "
          "model keeps ST roughly flat (see module docstring)")

    st1 = points[0].gflops_per_core("sthosvd")
    ho1 = points[0].gflops_per_core("hooi")
    # Single-node efficiencies near the paper's calibration point.
    assert 0.4 < st1 / PEAK < 0.8
    assert ho1 < st1  # HOOI below ST-HOSVD everywhere (paper: 43% vs 66%)
    for pt in points:
        assert pt.gflops_per_core("hooi") < pt.gflops_per_core("sthosvd")
        assert pt.gflops_per_core("sthosvd") < PEAK

    # The 15 TB point processes in about a minute (ST-HOSVD + one HOOI
    # iteration; paper: 70 seconds).
    k6 = points[-1]
    total = k6.sthosvd_time + k6.hooi_time
    assert 10 < total < 200


def test_fig9b_terabyte_headline(benchmark):
    """Intro headline: '15 TB ... compressed ... in about a minute' and
    '12 GB ... in under a second' — check both modeled configurations."""

    points = benchmark.pedantic(
        lambda: weak_scaling_curve([1, 6], EDISON_CALIBRATED),
        rounds=1,
        iterations=1,
    )
    small, big = points
    table(
        "Intro headline timings (modeled)",
        ["config", "data", "cores", "ST-HOSVD s"],
        [
            ["k=1", "12.8 GB", small.n_procs, small.sthosvd_time],
            ["k=6", "16.6 TB", big.n_procs, big.sthosvd_time],
        ],
    )
    # 12 GB on one node: seconds (paper compresses it "in under a second"
    # on more nodes; on one node it is the ~3 s Fig. 9a point).
    assert small.sthosvd_time < 10
    # 15 TB on 1296 nodes: on the order of a minute.
    assert big.sthosvd_time < 120


def _sthosvd_prog(comm, x, grid):
    """Module-level SPMD program: picklable by reference, so the process
    backend dispatches it to the persistent rank pool instead of forking."""
    g = CartGrid(comm, grid)
    dt = DistTensor.from_global(g, x)
    dist_sthosvd(dt, ranks=(4, 4, 4, 4))
    return None


def test_fig9b_simulator_small_scale(benchmark):
    """Weak-scaling sanity on the executing simulator: constant local
    volume per rank, modeled time grows only by the added communication."""

    configs = [
        (1, (1, 1, 1, 1), (12, 12, 12, 12)),
        (4, (1, 1, 2, 2), (12, 12, 24, 24)),
    ]

    def run_all():
        out = []
        for p, grid, shape in configs:
            x = low_rank_tensor(shape, (4, 4, 4, 4), seed=29, noise=1e-6)
            res = run_spmd(p, _sthosvd_prog, x, grid)
            out.append((p, res.ledger.modeled_time()))
        return out

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    backend = resolve_backend(None).name
    table(
        f"Fig. 9b validation: simulated weak scaling, constant 12^4 per "
        f"rank [{backend} backend]",
        ["cores", "modeled ms", "efficiency"],
        [[p, t * 1e3, times[0][1] / t] for p, t in times],
    )
    print(f"spmd executor backend: {backend}")
    t1, t4 = times[0][1], times[1][1]
    # Far from free (communication enters at P=4) but far from serial
    # (4x the data does not cost 4x the single-rank time).
    assert t4 < 4 * t1
    assert t4 > 0.5 * t1
