"""Distributed-kernel overlap and local-kernel layout microbenchmarks.

Not a paper figure: this benchmark pins the communication/computation
overlap introduced with the deferred-completion transport (isendrecv,
ireduce on double-buffered windows), the layout-true local kernels, and
the perf-model-driven execution plan.  Results go to ``BENCH_kernels.json``
at the repo root so the perf trajectory is visible across PRs:

* ``dist_gram_overlap`` — the Alg. 4 ring at 4 ranks, overlap on vs off
  (pipelined: all hops posted before the dgemms);
* ``dist_ttm_overlap``  — the Alg. 3 blocked TTM at 4 ranks, overlap on
  vs off (each block-row ireduce completed after the next block's local
  TTM);
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
* ``dist_mode_svd_overlap`` — the Sec. IX TSQR/SVD kernel's mode-column
  ring at 4 ranks, overlap on vs off (the shared ``ring_exchange``
  pipeline: all hops posted before the slab scatter and local QR;
  recorded, not asserted — the TSQR+SVD tail dilutes the ring and the
  measured spread crosses 1.0, see RECORDED.md);
* ``tsqr_tree``         — butterfly vs eliminate-and-broadcast TSQR at
  4 ranks (the butterfly drops the broadcast and folds on every rank in
  parallel; bit-identical R either way — asserted; the gain is recorded
  only, see RECORDED.md);
* ``dist_sthosvd_overlap`` — the end-to-end driver with the overlap knob
  flipped (recorded for the trajectory, not asserted: on a problem this
  tiny the ratio is set by the transport's real per-message posting
  overhead and has measured on both sides of 1.0 across machines — the
  regime where a hardcoded default is wrong somewhere, and the reason
  the knob is now planned per problem);
* ``dist_sthosvd_mixed`` — the end-to-end tolerance-driven driver under
  ``compute_dtype="mixed"`` vs the float64 default: float32
  Gram/TSQR/TTM words and flops, same truncation decisions on a problem
  whose noise floor sits below both tolerance shares.  Asserted: same
  truncation decisions, and the delivered relative error meets the
  requested tolerance (the achieved/requested ratio is recorded); the
  gain is recorded only, see RECORDED.md;
* ``dist_sthosvd_plan`` — the TSQR-based ``method="svd"`` driver under
  the autotuned :func:`~repro.perfmodel.plan_sthosvd` config (planned
  against the calibrated machine, as ``repro-tucker plan`` does) vs the
  hardcoded production default (overlap on, binary tree).  Asserted:
  both configs produce bit-identical cores and the plan picks the
  butterfly; the gain is recorded only, see RECORDED.md.

**Harness.**  Every two-sided row is measured *paired*: each SPMD launch
times both variants back-to-back inside the same ranks, so machine drift
(cache state, sibling tests, CPU frequency) hits both sides of the ratio
equally.  N such launches are interleaved, each contributing one paired
ratio (slowest rank per side, since a collective finishes when its last
rank does); the recorded gain is the **median** ratio with the min/max
spread alongside, and an asserted row failing the ``>= 1.0`` claim
reports every per-launch ratio.  Wall-clock numbers, so absolute values
depend on the machine; the asserted claims are the *ratios* the
machinery exists to deliver.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.distributed import (
    OVERLAP_ENV_VAR,
    DistTensor,
    dist_gram,
    dist_mode_svd,
    dist_sthosvd,
    dist_ttm,
    tsqr_r,
)
from repro.distributed.layout import block_ranges
from repro.mpi import CartGrid, ProcessBackend, run_spmd, shutdown_worker_pools
from repro.mpi.backends import POOL_ENV_VAR
from repro.mpi.process_transport import ARENA_ENV_VAR, WINDOWS_ENV_VAR
from repro.perfmodel import EDISON_CALIBRATED, plan_sthosvd
from repro.tensor import gram, low_rank_tensor, qr_r, ttm, unfold

from benchmarks.conftest import table

_OUT = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"

#: Interleaved launches per row: one paired ratio each.
_LAUNCHES = 5

#: The overlap rows measure the production configuration — collective
#: windows on, warm rank pool — independent of the environment sweep the
#: CI legs apply (the ireduce pipeline exists to hide the window fences;
#: with windows forced off there is nothing to measure, and fork-per-run
#: cold starts drown the per-call ratios in scheduling noise).
_BACKEND = ProcessBackend(windows=True, pool=True)


@pytest.fixture(autouse=True)
def production_fastpath(monkeypatch):
    """Pin the whole fast path on for the workers these tests fork.

    The CI knob sweep exists to keep the *fallback* pipelines correct;
    the ratios measured here only exist on the production configuration
    (the arena in particular has no per-backend constructor knob — with
    per-message segment churn the butterfly's extra exchanges cost more
    than the broadcast they remove, on any schedule).  Fresh pools around
    each test so workers actually observe the pinned environment.
    """
    shutdown_worker_pools()
    for var in (POOL_ENV_VAR, ARENA_ENV_VAR, WINDOWS_ENV_VAR,
                OVERLAP_ENV_VAR):
        monkeypatch.setenv(var, "1")
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


def _assert_gain(row, stats, floor=1.0):
    """The asserted claim: the variant never loses.  Fails loudly with
    the spread and every per-launch paired ratio so a regression (or a
    row too noisy to assert, see RECORDED.md) is diagnosable."""
    assert stats["gain"] >= floor, (
        f"{row}: median paired gain {stats['gain']:.4f} < {floor} over "
        f"{len(stats['ratios'])} launches; spread "
        f"{stats['gain_min']:.4f}..{stats['gain_max']:.4f}, per-launch "
        f"ratios {stats['ratios']} (base {stats['base_sec']:.3e} s vs "
        f"variant {stats['variant_sec']:.3e} s).  A spread straddling "
        f"{floor} means the row is noise-dominated on this machine and "
        f"belongs in RECORDED.md, not in an assert."
    )


def _gram_prog(comm, x, iters):
    """Times the blocking and the pipelined ring back-to-back in the
    *same* launch, so slow drift on a loaded machine hits both sides of
    the ratio equally."""
    g = CartGrid(comm, (comm.size, 1, 1))
    dt = DistTensor.from_global(g, x)
    elapsed = {}
    for overlap in (False, True):
        dist_gram(dt, 0, overlap=overlap)  # warm (windows, arena, pyc)
        comm.barrier()
        start = time.perf_counter()
        for _ in range(iters):
            s = dist_gram(dt, 0, overlap=overlap)
        elapsed[overlap] = time.perf_counter() - start
    return elapsed[False], elapsed[True], float(s[0, 0])


def _ttm_prog(comm, x, v, new_dim, iters):
    g = CartGrid(comm, (comm.size, 1, 1))
    dt = DistTensor.from_global(g, x)
    v_local = np.ascontiguousarray(v[:, dt.local_slices[0]])
    elapsed = {}
    for overlap in (False, True):
        dist_ttm(dt, v_local, 0, new_dim, strategy="blocked",
                 overlap=overlap)  # warm
        comm.barrier()
        start = time.perf_counter()
        for _ in range(iters):
            z = dist_ttm(dt, v_local, 0, new_dim, strategy="blocked",
                         overlap=overlap)
        elapsed[overlap] = time.perf_counter() - start
    return elapsed[False], elapsed[True], float(z.local.ravel()[0])


def _mode_svd_prog(comm, x, iters):
    g = CartGrid(comm, (comm.size, 1, 1))
    dt = DistTensor.from_global(g, x)
    elapsed = {}
    for overlap in (False, True):
        dist_mode_svd(dt, 0, rank=4, overlap=overlap)  # warm
        comm.barrier()
        start = time.perf_counter()
        for _ in range(iters):
            _, eig = dist_mode_svd(dt, 0, rank=4, overlap=overlap)
        elapsed[overlap] = time.perf_counter() - start
    return elapsed[False], elapsed[True], float(eig.values[0])


def _tsqr_prog(comm, full, rows, iters):
    """Times both trees back-to-back in the same launch; also returns
    whether the two R factors agree bit-for-bit, so the bench doubles as
    a bit-identity check."""
    start_row, stop_row = rows[comm.rank]
    local = full[start_row:stop_row]
    elapsed, bits = {}, {}
    for tree in ("binary", "butterfly"):
        r = tsqr_r(comm, local, tree=tree)  # warm
        bits[tree] = r.tobytes()
        comm.barrier()
        start = time.perf_counter()
        for _ in range(iters):
            tsqr_r(comm, local, tree=tree)
        elapsed[tree] = time.perf_counter() - start
    return elapsed["binary"], elapsed["butterfly"], bits["binary"] == bits["butterfly"]


def _sthosvd_prog(comm, x, ranks, iters, method, cfg_a, cfg_b):
    """End-to-end driver under two explicit RuntimeConfigs, paired in the
    same launch; returns both cores' bytes for the bit-identity check."""
    g = CartGrid(comm, (2, 2, 1))
    dt = DistTensor.from_global(g, x)
    elapsed, cores = [], []
    for cfg in (cfg_a, cfg_b):
        dist_sthosvd(dt, ranks=ranks, ttm_strategy="blocked",
                     method=method, config=cfg)  # warm
        comm.barrier()
        start = time.perf_counter()
        for _ in range(iters):
            t = dist_sthosvd(dt, ranks=ranks, ttm_strategy="blocked",
                             method=method, config=cfg)
        elapsed.append(time.perf_counter() - start)
        cores.append(t.core.local.tobytes())
    return elapsed[0], elapsed[1], cores[0] == cores[1]


def test_dist_gram_ring_overlap(benchmark):
    # Latency-bound ring: small blocks, 3 hops per call — the regime
    # where the blocking schedule pays one peer-wait per hop per call.
    p, iters = 4, 60
    x = np.random.default_rng(3).standard_normal((32, 12, 8))
    run_spmd(p, _gram_prog, x, 1, backend=_BACKEND)  # prime pool

    blocking, overlapped, _ = benchmark.pedantic(
        lambda: _paired(_LAUNCHES, _gram_prog, x, iters),
        rounds=1, iterations=1,
    )
    stats = _gain_stats(blocking, overlapped, iters)
    table(
        f"dist_gram ring, {p} ranks, {x.shape} tensor "
        f"(median of {_LAUNCHES} x {iters}, paired)",
        ["schedule", "sec/call", "gain"],
        [["blocking", stats["base_sec"], 1.0],
         ["overlapped", stats["variant_sec"], stats["gain"]]],
    )
    _record(
        "dist_gram_overlap",
        {"ranks": p, "shape": list(x.shape), "blocking": stats["base_sec"],
         "overlap": stats["variant_sec"], "gain": stats["gain"],
         "gain_min": stats["gain_min"], "gain_max": stats["gain_max"]},
    )
    # Pipelining must never lose to the blocking ring (observed 1.1-1.3x).
    _assert_gain("dist_gram_overlap", stats)


def test_dist_mode_svd_ring_overlap(benchmark):
    # The Sec. IX kernel's mode-column ring in the same latency-bound
    # regime as the Gram row: small local blocks, 3 hops per call, plus a
    # TSQR+SVD tail the pipeline cannot help.  Recorded, not asserted:
    # the tail dilutes the ring to a fraction of the call, and the
    # measured spread (gain_min) has crossed below 1.0 on loaded
    # machines — see benchmarks/RECORDED.md.
    p, iters = 4, 60
    x = np.random.default_rng(9).standard_normal((24, 16, 8))
    run_spmd(p, _mode_svd_prog, x, 1, backend=_BACKEND)  # prime pool

    blocking, overlapped, _ = benchmark.pedantic(
        lambda: _paired(_LAUNCHES, _mode_svd_prog, x, iters),
        rounds=1, iterations=1,
    )
    stats = _gain_stats(blocking, overlapped, iters)
    table(
        f"dist_mode_svd ring, {p} ranks, {x.shape} tensor "
        f"(median of {_LAUNCHES} x {iters}, paired)",
        ["schedule", "sec/call", "gain"],
        [["blocking", stats["base_sec"], 1.0],
         ["overlapped", stats["variant_sec"], stats["gain"]]],
    )
    _record(
        "dist_mode_svd_overlap",
        {"ranks": p, "shape": list(x.shape), "blocking": stats["base_sec"],
         "overlap": stats["variant_sec"], "gain": stats["gain"],
         "gain_min": stats["gain_min"], "gain_max": stats["gain_max"]},
    )


def test_tsqr_butterfly_vs_binary(benchmark):
    # Communication-bound TSQR: modest triangles, so the binary tree's
    # serialized root folds + broadcast dominate.  The butterfly folds on
    # every rank in parallel and needs no broadcast; results are
    # bit-identical, so the row isolates pure schedule gain.
    p, iters, n = 4, 60, 32
    full = np.random.default_rng(10).standard_normal((48 * p, n))
    rows = block_ranges(48 * p, p)
    run_spmd(p, _tsqr_prog, full, rows, 1, backend=_BACKEND)  # prime pool

    binary, butterfly, extras = benchmark.pedantic(
        lambda: _paired(_LAUNCHES, _tsqr_prog, full, rows, iters),
        rounds=1, iterations=1,
    )
    assert all(same for launch in extras for (same,) in launch)  # bit-identical
    stats = _gain_stats(binary, butterfly, iters)
    table(
        f"tsqr_r, {p} ranks, {full.shape} matrix "
        f"(median of {_LAUNCHES} x {iters}, paired)",
        ["tree", "sec/call", "gain"],
        [["binary", stats["base_sec"], 1.0],
         ["butterfly", stats["variant_sec"], stats["gain"]]],
    )
    _record(
        "tsqr_tree",
        {"ranks": p, "shape": list(full.shape), "binary": stats["base_sec"],
         "butterfly": stats["variant_sec"], "gain": stats["gain"],
         "gain_min": stats["gain_min"], "gain_max": stats["gain_max"]},
    )
    # Recorded, not asserted: the schedule gain (dropped broadcast vs
    # extra folds) measured 0.98 on a 2-CPU box — the spread straddles
    # 1.0, see benchmarks/RECORDED.md.  Bit-identity above is the claim.


def test_dist_ttm_blocked_overlap(benchmark):
    p, iters, k = 4, 20, 16
    x = np.random.default_rng(4).standard_normal((64, 24, 16))
    v = np.random.default_rng(5).standard_normal((k, x.shape[0]))
    run_spmd(p, _ttm_prog, x, v, k, 1, backend=_BACKEND)  # prime pool

    blocking, overlapped, _ = benchmark.pedantic(
        lambda: _paired(_LAUNCHES, _ttm_prog, x, v, k, iters),
        rounds=1, iterations=1,
    )
    stats = _gain_stats(blocking, overlapped, iters)
    table(
        f"dist_ttm blocked, {p} ranks, {x.shape} -> K={k} "
        f"(median of {_LAUNCHES} x {iters}, paired)",
        ["schedule", "sec/call", "gain"],
        [["blocking", stats["base_sec"], 1.0],
         ["overlapped", stats["variant_sec"], stats["gain"]]],
    )
    _record(
        "dist_ttm_overlap",
        {"ranks": p, "shape": list(x.shape), "new_dim": k,
         "blocking": stats["base_sec"], "overlap": stats["variant_sec"],
         "gain": stats["gain"], "gain_min": stats["gain_min"],
         "gain_max": stats["gain_max"]},
    )
    # The block-row reduces ride the double-buffered windows; hiding
    # their fences behind the dgemms is the headline win (1.4-1.7x).
    _assert_gain("dist_ttm_overlap", stats)


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


def _gram_unfold_copy(x, mode):
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


def _qr_unfold_copy(x, mode):
    """The local TSQR step the kernel replaced: LAPACK's unblocked QR of a
    materialised, transposed unfolding."""
    return np.linalg.qr(unfold(x, mode).T, mode="r")


def _layout_rows(kernel, reference, step_shapes=_STEP_SHAPES):
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
        f"{title} (median of {_LAUNCHES}, paired, one process)",
        ["workload", "shape", "mode", reference_name, "kernel", "gain"],
        [[r["workload"], "x".join(map(str, r["shape"])), r["mode"],
          r["reference"], r["kernel"], r["gain"]] for r in rows],
    )


def test_ttm_layout_vs_tensordot(benchmark):
    rows = benchmark.pedantic(
        lambda: _layout_rows(
            lambda x, u, mode: ttm(x, u, mode, transpose=True), _ttm_tensordot
        ),
        rounds=1, iterations=1,
    )
    _layout_table("ttm: layout-true kernel vs tensordot", "tensordot", rows)
    _record("ttm_layout", {"reference": "tensordot+asfortranarray",
                           "rows": rows})


def test_gram_layout_vs_unfold_copy(benchmark):
    rows = benchmark.pedantic(
        lambda: _layout_rows(
            lambda x, u, mode: gram(x, mode),
            lambda x, u, mode: _gram_unfold_copy(x, mode),
        ),
        rounds=1, iterations=1,
    )
    _layout_table("gram: layout-true kernel vs unfold copy", "unfold copy",
                  rows)
    _record("gram_layout", {"reference": "unfold copy + syrk", "rows": rows})


def test_qr_layout_vs_unfold_copy(benchmark):
    # |R| on both sides: the two factorizations differ by row signs only.
    rows = benchmark.pedantic(
        lambda: _layout_rows(
            lambda x, u, mode: np.abs(qr_r(x, mode)),
            lambda x, u, mode: np.abs(_qr_unfold_copy(x, mode)),
            _QR_SHAPES,
        ),
        rounds=1, iterations=1,
    )
    _layout_table("qr: streaming layout-true kernel vs QR of an unfold copy",
                  "unfold + qr", rows)
    _record("qr_layout", {"reference": "unfold copy + np.linalg.qr",
                          "rows": rows})


def test_dist_sthosvd_overlap_end_to_end(benchmark):
    # End-to-end driver with the overlap knob flipped: recorded for the
    # perf trajectory (and the bit-identity acceptance), not asserted —
    # on a problem this tiny the ratio is set by the transport's real
    # per-message posting overhead and has measured on both sides of 1.0
    # across machines, which is exactly why the knob is now decided per
    # problem from calibrated machine constants (next test) instead of
    # hardcoded.
    p, ranks = 4, (6, 4, 4)
    x = np.random.default_rng(8).standard_normal((24, 16, 12))
    off = RuntimeConfig(overlap=False)
    on = RuntimeConfig(overlap=True)
    run_spmd(p, _sthosvd_prog, x, ranks, 1, "gram", off, on, backend=_BACKEND)

    blocking, overlapped, extras = benchmark.pedantic(
        lambda: _paired(_LAUNCHES, _sthosvd_prog, x, ranks, 1, "gram",
                        off, on),
        rounds=1, iterations=1,
    )
    # Bit-identical with the knob flipped, in every launch.
    assert all(same for launch in extras for (same,) in launch)
    stats = _gain_stats(blocking, overlapped)
    table(
        f"dist_sthosvd, {p} ranks, {x.shape} -> {ranks} "
        f"(median of {_LAUNCHES}, paired)",
        ["schedule", "sec/run", "gain"],
        [["blocking", stats["base_sec"], 1.0],
         ["overlapped", stats["variant_sec"], stats["gain"]]],
    )
    _record(
        "dist_sthosvd_overlap",
        {"ranks": p, "shape": list(x.shape), "tucker_ranks": list(ranks),
         "blocking": stats["base_sec"], "overlap": stats["variant_sec"],
         "gain": stats["gain"], "gain_min": stats["gain_min"],
         "gain_max": stats["gain_max"]},
    )


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


def test_dist_sthosvd_autotuned_plan(benchmark):
    # The payoff row: the perf-model-selected plan vs the hardcoded
    # production default (overlap on, binary tree), on the TSQR-based
    # ``method="svd"`` driver where the reduction-tree knob is live.
    # Planned against the calibrated machine description (as the CLI's
    # ``repro-tucker plan`` does): the model keeps overlap on — its
    # hideable communication exceeds the posting overhead here — and
    # flips the tree to butterfly, whose parallel folds beat the binary
    # tree's serialized root + broadcast on every mode column.
    p, ranks, iters = 4, (6, 4, 4), 5
    x = np.random.default_rng(8).standard_normal((24, 16, 12))
    default = RuntimeConfig()  # overlap on, binary tree
    planned = plan_sthosvd(
        x.shape, ranks=ranks, grid=(2, 2, 1), machine=EDISON_CALIBRATED
    ).config
    assert planned.tsqr_tree == "butterfly"  # the decision this row banks on
    run_spmd(p, _sthosvd_prog, x, ranks, 1, "svd", default, planned,
             backend=_BACKEND)

    base, tuned, extras = benchmark.pedantic(
        lambda: _paired(_LAUNCHES, _sthosvd_prog, x, ranks, iters, "svd",
                        default, planned),
        rounds=1, iterations=1,
    )
    # The plan only reschedules; results stay bit-identical, every launch.
    assert all(same for launch in extras for (same,) in launch)
    stats = _gain_stats(base, tuned, iters)
    table(
        f"dist_sthosvd svd-method plan, {p} ranks, {x.shape} -> {ranks} "
        f"(median of {_LAUNCHES} x {iters}, paired)",
        ["config", "sec/run", "gain"],
        [["default (binary tree)", stats["base_sec"], 1.0],
         ["autotuned plan", stats["variant_sec"], stats["gain"]]],
    )
    _record(
        "dist_sthosvd_plan",
        {"ranks": p, "shape": list(x.shape), "tucker_ranks": list(ranks),
         "method": "svd", "default": stats["base_sec"],
         "planned": stats["variant_sec"], "plan": planned.to_dict(),
         "gain": stats["gain"], "gain_min": stats["gain_min"],
         "gain_max": stats["gain_max"]},
    )
    # Recorded, not asserted: the plan now differs from the default only
    # in tree and overlap, a few percent of a driver run whose spread
    # straddles 1.0 on a 2-CPU box — see benchmarks/RECORDED.md.
    shutdown_worker_pools()
