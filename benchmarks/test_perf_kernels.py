"""Local-kernel layout and mixed-precision microbenchmarks.

Not a paper figure: this benchmark pins the layout-true local kernels and
the mixed-precision driver.  Results go to ``BENCH_kernels.json`` at the
repo root so the perf trajectory is visible across PRs:

* ``ttm_layout`` / ``gram_layout`` — the one local kernel pair vs what it
  replaced (``tensordot`` + ``asfortranarray``; unfold copy + syrk), kept
  in this file as references, at the step shapes of the repo benchmark's
  ``seq-hcci`` workload and the rank-local ones of ``dist-sp`` (recorded
  only: single-process wall time on a shared box; the end-to-end claim
  lives in ``bench/``.  Asserted: kernel and reference agree);
* ``qr_layout`` — the streaming QR kernel vs ``np.linalg.qr`` of a
  materialised ``unfold(x, n).T`` at the rank-local step shapes of
  ``cli-tjlr`` and at 36 x 427680 (recorded only, as above.  Asserted:
  ``|R|`` agrees);
* ``reconstruct_order`` — the reconstruction chains of the three gated
  workloads' models in increasing mode order vs ``chain_order``, with
  each chain's flops; ``ttm_first_mode`` — the first-mode product in
  512 KB column panels vs one dgemm over the whole view, at every
  first-mode step of those workloads; ``ttm_large_block`` — a sub-block
  taller than one panel walked in 512 KB row panels vs one stacked
  ``matmul``, at every compress and reconstruct step of those workloads
  that has one (``seq-hcci``'s last-mode shrink and expansion,
  ``cli-tjlr``'s rank-local mode-4 projections and its mode-4
  reconstruction step; ``dist-sp`` has none) (all three recorded only,
  as above.  Asserted: the two sides agree);
* ``mode_order`` — tolerance-driven ``core.sthosvd`` on the repo
  benchmark's three gated inputs in increasing mode order, in the order
  the driver plans (Sec. VIII-C's ratio rule on sampled ranks), and in
  the fastest of all permutations found by timing each once (recorded
  only, as above, and run only with ``--bench-record``: the 264
  permutations take about 45 s.  Asserted: the planned run meets the
  tolerance);
* ``dist_sthosvd_mixed`` — the end-to-end tolerance-driven driver under
  ``compute_dtype="mixed"`` vs the float64 default: float32
  Gram/TSQR/TTM words and flops, same truncation decisions on a problem
  whose noise floor sits below both tolerance shares.  Asserted: same
  truncation decisions, and the delivered relative error meets the
  requested tolerance (the achieved/requested ratio is recorded); the
  gain is recorded only, see benchmarks/RECORDED.md.

**Harness.**  Every two-sided row is measured *paired*: each SPMD launch
times both variants back-to-back inside the same ranks, so machine drift
(cache state, sibling tests, CPU frequency) hits both sides of the ratio
equally.  N such launches are interleaved, each contributing one paired
ratio (slowest rank per side, since a collective finishes when its last
rank does); the recorded gain is the **median** ratio with the min/max
spread alongside.  The single-process layout rows (``ttm_layout``,
``gram_layout``, ``qr_layout``, ``ttm_first_mode``, ``ttm_large_block``)
are taken in one child interpreter per row set, started as the repo
benchmark starts its stages (``MALLOC_MMAP_MAX_=0``,
``MALLOC_TRIM_THRESHOLD_=2**40``, one BLAS thread), so the page faults
of each call's fresh result do not hide the kernels' times.  Wall-clock
numbers, so absolute values depend on the machine.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import itertools

from repro.core import sthosvd
from repro.data import center_and_scale, hcci_proxy, sp_proxy, tjlr_proxy
from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, run_spmd, shutdown_worker_pools
from repro.tensor import (
    gram,
    low_rank_tensor,
    multi_ttm,
    qr_r,
    random_factor,
    random_tensor,
    ttm,
    unfold,
)
from repro.tensor.ttm import chain_order

from bench.run import child_env
from benchmarks.conftest import table

_ROOT = Path(__file__).resolve().parents[1]
_OUT = _ROOT / "BENCH_kernels.json"

#: Interleaved launches per row: one paired ratio each.
_LAUNCHES = 5

#: The distributed rows run the process backend's one configuration: warm
#: rank pool (the rank programs are module-level functions) and arena.
_BACKEND = "process"


@pytest.fixture(autouse=True)
def fresh_pools():
    """Fresh pools around each test, so no row inherits another's workers."""
    shutdown_worker_pools()
    yield
    shutdown_worker_pools()

_RESULTS: dict = {}

#: Set per test from ``--bench-record`` (benchmarks/conftest.py): without
#: the flag the rows are measured, printed and asserted but not written.
BENCH_RECORD = False


def _record(key: str, payload: dict) -> None:
    _RESULTS[key] = payload
    if not BENCH_RECORD:
        return
    existing = {}
    if _OUT.exists():
        try:
            existing = json.loads(_OUT.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    existing.update(_RESULTS)
    existing["meta"] = {
        "cpus": os.cpu_count(),
        "launches": _LAUNCHES,
        "unit": "seconds unless stated",
        "gain": "median of per-launch paired ratios; spread is min..max",
    }
    _OUT.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _paired(n, prog, *args, ranks=4):
    """n interleaved launches of a paired prog -> per-launch times.

    ``prog`` must return ``(base_seconds, variant_seconds, *extras)`` per
    rank, both sides measured inside the same launch.  Each launch
    contributes the slowest rank per side (a collective finishes when its
    last rank does).  Returns ``(base[], variant[], extras[])``.
    """
    base, variant, extras = [], [], []
    for _ in range(n):
        res = run_spmd(ranks, prog, *args, backend=_BACKEND, timeout=120.0)
        base.append(max(v[0] for v in res.values))
        variant.append(max(v[1] for v in res.values))
        extras.append([v[2:] for v in res.values])
    return base, variant, extras


def _gain_stats(base, variant, iters=1):
    """Median paired gain + spread, plus per-side median seconds."""
    ratios = sorted(b / v for b, v in zip(base, variant))
    return {
        "base_sec": float(np.median(base)) / iters,
        "variant_sec": float(np.median(variant)) / iters,
        "gain": float(np.median(ratios)),
        "gain_min": ratios[0],
        "gain_max": ratios[-1],
        "ratios": [round(r, 4) for r in ratios],
    }


#: ``(working shape, mode, R_n)`` of every ST-HOSVD step of the repo
#: benchmark's ``seq-hcci`` workload and, rank-local on its 1x1x1x1x2
#: grid, of ``dist-sp`` (tol 1e-3; ``bench/workloads.py``).
_STEP_SHAPES = {
    "seq-hcci": [
        ((96, 96, 33, 40), 0, 40), ((40, 96, 33, 40), 1, 38),
        ((40, 38, 33, 40), 2, 28), ((40, 38, 28, 40), 3, 10),
    ],
    "dist-sp": [
        ((36, 36, 36, 11, 10), 0, 6), ((6, 36, 36, 11, 10), 1, 9),
        ((6, 9, 36, 11, 10), 2, 8), ((6, 9, 8, 11, 10), 3, 7),
        ((6, 9, 8, 7, 10), 4, 6),
    ],
}


def _ttm_tensordot(x, u, mode):
    """The TTM the kernel replaced: a transposing copy in, a strided
    result out, a normalising copy after."""
    out = np.tensordot(u.T, x, axes=([1], [mode]))
    return np.asfortranarray(np.moveaxis(out, 0, mode))


def _ttm_kernel(x, u, mode):
    return ttm(x, u, mode, transpose=True)


def _gram_kernel(x, u, mode):
    return gram(x, mode)


def _gram_unfold_copy(x, u, mode):
    """The Gram the kernel replaced: syrk on a materialised unfolding."""
    mat = unfold(x, mode)
    s = mat @ mat.T
    return (s + s.T) * 0.5


#: What the streaming QR kernel factorizes in ``cli-tjlr``, rank-local on
#: its 1x1x1x2x1 grid (tol 1e-3, ``--method svd``): the local block in the
#: four undivided modes, the ring-assembled ``(kept columns) x J_n`` slab
#: in the divided one; and the issue's tall-skinny reference shape.
_QR_SHAPES = {
    "cli-tjlr": [
        ((20, 24, 16, 18, 16), 0, 14), ((14, 24, 16, 18, 16), 1, 8),
        ((14, 8, 16, 18, 16), 2, 11), ((9856, 35), 1, 35),
        ((14, 8, 11, 18, 16), 4, 16),
    ],
    "tall-skinny": [((36, 427680), 0, 36)],
}


def _qr_kernel(x, u, mode):
    # |R| on both sides: the two factorizations differ by row signs only.
    return np.abs(qr_r(x, mode))


def _qr_unfold_copy(x, u, mode):
    """The local TSQR step the kernel replaced: LAPACK's unblocked QR of a
    materialised, transposed unfolding (``|R|``, as ``_qr_kernel``)."""
    return np.abs(np.linalg.qr(unfold(x, mode).T, mode="r"))


def _layout_rows(key):
    """``_LAYOUTS[key]``'s rows, taken in a child interpreter started as
    the repo benchmark starts its stages (``bench.run.child_env``: glibc
    keeps freed memory, one BLAS thread).  Without those malloc pins each
    call's fresh result faults its pages in, and the fault time hides
    most of what the rows show."""
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.test_perf_kernels", key],
        env=child_env(), cwd=_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _measure_layout_rows(kernel, reference, step_shapes):
    """Per step shape: paired in-process medians of reference and kernel."""
    rows = []
    for workload, steps in step_shapes.items():
        for shape, mode, rank in steps:
            rng = np.random.default_rng(len(rows))
            x = np.asfortranarray(rng.standard_normal(shape))
            u = rng.standard_normal((shape[mode], rank))
            want, got = reference(x, u, mode), kernel(x, u, mode)  # warm
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-11 * float(np.abs(want).max())
            )
            ref_sec, kernel_sec = [], []
            for _ in range(_LAUNCHES):
                for call, out in ((reference, ref_sec), (kernel, kernel_sec)):
                    start = time.perf_counter()
                    call(x, u, mode)
                    out.append(time.perf_counter() - start)
            stats = _gain_stats(ref_sec, kernel_sec)
            rows.append({"workload": workload, "shape": list(shape),
                         "mode": mode, "rank": rank,
                         "reference": stats["base_sec"],
                         "kernel": stats["variant_sec"],
                         "gain": stats["gain"], "gain_min": stats["gain_min"],
                         "gain_max": stats["gain_max"]})
    return rows


def _layout_table(title, reference_name, rows):
    table(
        f"{title} (median of {_LAUNCHES}, paired, one pinned process)",
        ["workload", "shape", "mode", reference_name, "kernel", "gain"],
        [[r["workload"], "x".join(map(str, r["shape"])), r["mode"],
          r["reference"], r["kernel"], r["gain"]] for r in rows],
    )


def test_ttm_layout_vs_tensordot(benchmark):
    rows = benchmark.pedantic(
        lambda: _layout_rows("ttm_layout"), rounds=1, iterations=1
    )
    _layout_table("ttm: layout-true kernel vs tensordot", "tensordot", rows)
    _record("ttm_layout", {"reference": "tensordot+asfortranarray",
                           "rows": rows})


def test_gram_layout_vs_unfold_copy(benchmark):
    rows = benchmark.pedantic(
        lambda: _layout_rows("gram_layout"), rounds=1, iterations=1
    )
    _layout_table("gram: layout-true kernel vs unfold copy", "unfold copy",
                  rows)
    _record("gram_layout", {"reference": "unfold copy + syrk", "rows": rows})


def test_qr_layout_vs_unfold_copy(benchmark):
    rows = benchmark.pedantic(
        lambda: _layout_rows("qr_layout"), rounds=1, iterations=1
    )
    _layout_table("qr: streaming layout-true kernel vs QR of an unfold copy",
                  "unfold + qr", rows)
    _record("qr_layout", {"reference": "unfold copy + np.linalg.qr",
                          "rows": rows})


#: The models the repo benchmark's three gated workloads compress to (tol
#: 1e-3): ``(ranks, shape)``, the reconstruction chain's extents.
_MODELS = {
    "seq-hcci": ((40, 38, 28, 10), (96, 96, 33, 40)),
    "dist-sp": ((6, 9, 8, 7, 12), (36, 36, 36, 11, 20)),
    "cli-tjlr": ((14, 8, 11, 35, 16), (20, 24, 16, 35, 16)),
}


def _chain_mflop(ranks, shape, order):
    sizes, flops = list(ranks), 0
    for m in order:
        flops += 2 * shape[m] * int(np.prod(sizes))
        sizes[m] = shape[m]
    return flops / 1e6


def _order_rows():
    """Per model: paired in-process medians of the reconstruction chain in
    increasing mode order and in ``chain_order``."""
    rows = []
    for workload, (ranks, shape) in _MODELS.items():
        core = random_tensor(ranks, seed=len(rows))
        factors = [random_factor(s, r, seed=n)
                   for n, (s, r) in enumerate(zip(shape, ranks))]
        natural = tuple(range(len(shape)))
        chosen = chain_order(
            (m, r, s) for m, (r, s) in enumerate(zip(ranks, shape))
        )
        want = multi_ttm(core, factors, order=natural)
        np.testing.assert_allclose(
            multi_ttm(core, factors), want,
            rtol=0, atol=1e-12 * float(np.abs(want).max()),
        )
        del want
        natural_sec, chosen_sec = [], []
        for _ in range(_LAUNCHES):
            for order, out in ((natural, natural_sec), (None, chosen_sec)):
                start = time.perf_counter()
                multi_ttm(core, factors, order=order)
                out.append(time.perf_counter() - start)
        stats = _gain_stats(natural_sec, chosen_sec)
        rows.append({"workload": workload, "ranks": list(ranks),
                     "shape": list(shape), "order": chosen,
                     "natural_mflop": _chain_mflop(ranks, shape, natural),
                     "order_mflop": _chain_mflop(ranks, shape, chosen),
                     "natural": stats["base_sec"], "ordered": stats["variant_sec"],
                     "gain": stats["gain"], "gain_min": stats["gain_min"],
                     "gain_max": stats["gain_max"]})
    return rows


def test_reconstruct_chain_order_vs_increasing(benchmark):
    rows = benchmark.pedantic(_order_rows, rounds=1, iterations=1)
    table(
        f"reconstruction chain: increasing mode order vs chain_order "
        f"(median of {_LAUNCHES}, paired, one process)",
        ["workload", "order", "MFLOP", "increasing", "ordered", "gain"],
        [[r["workload"], "".join(map(str, r["order"])),
          f"{r['natural_mflop']:.0f}->{r['order_mflop']:.0f}",
          r["natural"], r["ordered"], r["gain"]] for r in rows],
    )
    _record("reconstruct_order", {"reference": "increasing mode order",
                                  "rows": rows})


#: Every first-mode product of the three workloads' chains: the first
#: ST-HOSVD step (``seq-hcci``, ``dist-sp`` rank-local, ``cli-tjlr``
#: rank-local) and the mode-0 step of each reconstruction chain in
#: ``chain_order`` — ``(working shape, 0, output extent)``.
_FIRST_MODE_SHAPES = {
    "seq-hcci": [((96, 96, 33, 40), 0, 40), ((40, 38, 33, 10), 0, 96)],
    "dist-sp": [((36, 36, 36, 11, 10), 0, 6), ((6, 36, 36, 11, 20), 0, 36)],
    "cli-tjlr": [((20, 24, 16, 18, 16), 0, 14), ((14, 8, 11, 35, 16), 0, 20)],
}


def _ttm_one_dgemm(x, u, mode):
    """The first-mode product the kernel ran before it walked panels: one
    dgemm over the whole ``(I_n, trail)`` view."""
    rows, k = x.shape[0], u.shape[1]
    out = np.empty((k,) + x.shape[1:], order="F")
    np.matmul(u.T, np.reshape(x, (rows, -1), order="F"),
              out=np.reshape(out, (k, -1), order="F"))
    return out


def test_ttm_first_mode_panels_vs_one_dgemm(benchmark):
    rows = benchmark.pedantic(
        lambda: _layout_rows("ttm_first_mode"), rounds=1, iterations=1
    )
    _layout_table("ttm first mode: 512 KB panels vs one dgemm", "one dgemm",
                  rows)
    _record("ttm_first_mode", {"reference": "one dgemm on the (I_n, trail) view",
                               "rows": rows})


#: Every TTM step of the three workloads whose sub-block is taller than
#: one panel: ``seq-hcci``'s mode-3 shrink (first in its planned order)
#: and the last step of its reconstruction chain, ``cli-tjlr``'s mode-4
#: projection on each rank of its 1x1x1x2x1 grid and the mode-4 step of
#: its reconstruction chain — ``(working shape, mode, output extent)``.
#: ``dist-sp``'s chains never reach the row walk: their large step is
#: the first mode.
_LARGE_BLOCK_SHAPES = {
    "seq-hcci": [((96, 96, 33, 40), 3, 10), ((96, 96, 33, 10), 3, 40)],
    "cli-tjlr": [((14, 8, 11, 18, 16), 4, 16), ((14, 8, 11, 17, 16), 4, 16),
                 ((14, 8, 11, 35, 16), 4, 16)],
}


def _ttm_one_stacked_matmul(x, u, mode):
    """The product the kernel ran before it walked row panels: one stacked
    ``matmul`` over the ``(lead, I_n)`` sub-blocks, each a single dgemm."""
    lead, rows, k = int(np.prod(x.shape[:mode])), x.shape[mode], u.shape[1]
    out = np.empty(x.shape[:mode] + (k,) + x.shape[mode + 1:], order="F")
    np.matmul(
        np.reshape(x, (lead, rows, -1), order="F").transpose(2, 0, 1), u,
        out=np.reshape(out, (lead, k, -1), order="F").transpose(2, 0, 1),
    )
    return out


def test_ttm_large_block_row_panels_vs_one_matmul(benchmark):
    rows = benchmark.pedantic(
        lambda: _layout_rows("ttm_large_block"), rounds=1, iterations=1
    )
    _layout_table("ttm tall sub-block: 512 KB row panels vs one matmul",
                  "one matmul", rows)
    _record("ttm_large_block", {"reference": "one stacked matmul over the "
                                "(lead, I_n) sub-blocks", "rows": rows})


#: The repo benchmark's gated inputs (``bench/workloads.py``, seed
#: unpermuted): proxy, shape, species mode, factor method; tol 1e-3.
_BENCH_INPUTS = {
    "seq-hcci": (hcci_proxy, (96, 96, 33, 40), 2, "gram"),
    "dist-sp": (sp_proxy, (36, 36, 36, 11, 20), 3, "gram"),
    "cli-tjlr": (tjlr_proxy, (20, 24, 16, 35, 16), 3, "svd"),
}


def _timed(x, method, order):
    start = time.perf_counter()
    res = sthosvd(x, tol=1e-3, mode_order=order, method=method)
    return time.perf_counter() - start, res


def _mode_order_rows():
    """Per input: the fastest permutation (each timed once), then paired
    in-process medians of increasing order, the planned order and it."""
    rows = []
    for workload, (proxy, shape, species, method) in _BENCH_INPUTS.items():
        x, _ = center_and_scale(proxy(shape=shape).tensor, species)
        x = np.asfortranarray(x)
        _, planned = _timed(x, method, None)  # warm
        assert planned.error_estimate() <= 1e-3
        best = min(
            itertools.permutations(range(x.ndim)),
            key=lambda order: _timed(x, method, order)[0],
        )
        sides = {"natural": "natural", "planned": None, "best": best}
        seconds: dict = {side: [] for side in sides}
        for _ in range(_LAUNCHES):
            for side, order in sides.items():
                seconds[side].append(_timed(x, method, order)[0])
        planned_stats = _gain_stats(seconds["natural"], seconds["planned"])
        best_stats = _gain_stats(seconds["natural"], seconds["best"])
        rows.append({"workload": workload, "shape": list(shape),
                     "ranks": list(planned.ranks),
                     "planned_order": list(planned.mode_order),
                     "best_order": list(best),
                     "natural": planned_stats["base_sec"],
                     "planned": planned_stats["variant_sec"],
                     "best": best_stats["variant_sec"],
                     "gain": planned_stats["gain"],
                     "gain_min": planned_stats["gain_min"],
                     "gain_max": planned_stats["gain_max"],
                     "best_gain": best_stats["gain"]})
    return rows


def test_mode_order_natural_vs_planned_vs_best(benchmark):
    if not BENCH_RECORD:
        pytest.skip("about 45 s of permutations; runs with --bench-record")
    rows = benchmark.pedantic(_mode_order_rows, rounds=1, iterations=1)
    table(
        f"tol=1e-3 ST-HOSVD mode order: increasing vs planned vs fastest "
        f"permutation (median of {_LAUNCHES}, paired, one process)",
        ["workload", "planned", "best", "increasing", "planned s", "best s",
         "gain"],
        [[r["workload"], "".join(map(str, r["planned_order"])),
          "".join(map(str, r["best_order"])), r["natural"], r["planned"],
          r["best"], r["gain"]] for r in rows],
    )
    _record("mode_order", {"reference": "increasing mode order",
                           "tol": 1e-3, "rows": rows})


def _sthosvd_dtype_prog(comm, x, tol, iters):
    """float64 vs mixed, paired in the same launch; also returns the
    driver's error estimate and ranks per side so the row can check the
    truncation decisions match before claiming a fair ratio."""
    g = CartGrid(comm, (2, 2, 1))
    dt = DistTensor.from_global(g, x)
    elapsed, ranks = [], []
    for dtype in ("float64", "mixed"):
        t = dist_sthosvd(dt, tol=tol, compute_dtype=dtype)  # warm
        comm.barrier()
        start = time.perf_counter()
        for _ in range(iters):
            t = dist_sthosvd(dt, tol=tol, compute_dtype=dtype)
        elapsed.append(time.perf_counter() - start)
        ranks.append(t.ranks)
    return elapsed[0], elapsed[1], ranks[0] == ranks[1]


def _mixed_error_prog(comm, x, tol):
    g = CartGrid(comm, (2, 2, 1))
    dt = DistTensor.from_global(g, x)
    t = dist_sthosvd(dt, tol=tol, compute_dtype="mixed")
    tucker = t.to_tucker()
    return float(
        np.linalg.norm(x - tucker.reconstruct()) / np.linalg.norm(x)
    )


def test_dist_sthosvd_mixed_vs_float64(benchmark):
    # The tentpole row: the tolerance-driven driver with narrow kernels.
    # The problem's noise floor (2e-4 elementwise, ~1.4% of the norm)
    # sits below both the float64 tolerance and mixed's tighter
    # truncation share, so both dtypes cut to the same ranks and the
    # ratio isolates the float32 words + flops.  Mixed skips refinement
    # here (the float32 defect fits the precision share), keeping the
    # full win; the delivered error must still meet the tolerance.
    p, tol, iters = 4, 0.05, 2
    x = low_rank_tensor((192, 128, 96), (12, 10, 8), seed=20, noise=2e-4)
    run_spmd(p, _sthosvd_dtype_prog, x, tol, 1, backend=_BACKEND)  # prime

    wide, mixed, extras = benchmark.pedantic(
        lambda: _paired(_LAUNCHES, _sthosvd_dtype_prog, x, tol, iters),
        rounds=1, iterations=1,
    )
    # Same truncation decisions on every launch: the ratio is fair.
    assert all(same for launch in extras for (same,) in launch)
    achieved = run_spmd(
        p, _mixed_error_prog, x, tol, backend=_BACKEND, timeout=120.0
    ).values[0]
    stats = _gain_stats(wide, mixed, iters)
    table(
        f"dist_sthosvd dtype, {p} ranks, {x.shape}, tol={tol} "
        f"(median of {_LAUNCHES} x {iters}, paired)",
        ["compute_dtype", "sec/run", "gain"],
        [["float64", stats["base_sec"], 1.0],
         ["mixed", stats["variant_sec"], stats["gain"]]],
    )
    _record(
        "dist_sthosvd_mixed",
        {"ranks": p, "shape": list(x.shape), "tol": tol,
         "float64": stats["base_sec"], "mixed": stats["variant_sec"],
         "gain": stats["gain"], "gain_min": stats["gain_min"],
         "gain_max": stats["gain_max"], "achieved_error": achieved,
         "achieved_vs_requested": achieved / tol},
    )
    # The error-budget contract: delivered error meets the request.
    assert achieved <= tol, (
        f"mixed delivered {achieved:.3e} > requested tol {tol}"
    )
    # The gain itself is recorded, not asserted: paired ratios measured
    # 0.63..1.48 on one box (see benchmarks/RECORDED.md); the narrow
    # words are asserted where they dominate, in ``dtype_rounds``.


#: The layout row sets by record key: ``(kernel, reference, step shapes)``.
_LAYOUTS = {
    "ttm_layout": (_ttm_kernel, _ttm_tensordot, _STEP_SHAPES),
    "gram_layout": (_gram_kernel, _gram_unfold_copy, _STEP_SHAPES),
    "qr_layout": (_qr_kernel, _qr_unfold_copy, _QR_SHAPES),
    "ttm_first_mode": (_ttm_kernel, _ttm_one_dgemm, _FIRST_MODE_SHAPES),
    "ttm_large_block": (_ttm_kernel, _ttm_one_stacked_matmul,
                        _LARGE_BLOCK_SHAPES),
}


if __name__ == "__main__":
    # The child side of _layout_rows: one row set, as a JSON line.
    print(json.dumps(_measure_layout_rows(*_LAYOUTS[sys.argv[1]])))
