"""The traced run: per-layer metrics from spans around public calls.

Every probe runs on the workload's own input, so each metric is defined on
every workload; layer names are the package names under ``src/repro``.
Each value is the median over the probe's ops, a distributed span counting
as its slowest rank.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from bench.spans import Tracer, per_op_seconds, span_dict
from bench.workloads import N_RANKS, TOL


def trace(session, seconds):
    repro, programs = session.repro, session.programs
    workload, x = session.workload, session.x
    kind, method = workload.kind, workload.method
    if kind == "cli":
        from repro.data import center_and_scale

        x, _ = center_and_scale(x, workload.species_mode)
    else:
        np.save(session.input_path, x)  # the CLI probes need a file
    parallel = kind != "seq"
    if not parallel:
        session.grid = repro.distributed.choose_grid(N_RANKS, x.shape)
    tracer = Tracer()
    op_ids = iter(range(1 << 30))
    ledger = None

    def loop(name, call, share, min_ops=3, warm=True):
        """Closed loop of ``call`` under span ``name`` for ``share`` of the
        run, after one call that is not recorded; ``call`` gets the index of
        its span to hang rank spans on."""
        if warm:
            mark = len(tracer.spans)
            call(mark)
            del tracer.spans[mark:]
        stop = time.perf_counter() + share * seconds
        done = 0
        while done < min_ops or time.perf_counter() < stop:
            tracer.op = next(op_ids)
            index = len(tracer.spans)
            with tracer.span(name):
                call(index)
            done += 1

    def adopt(result, index):
        for _, spans in result.values:
            tracer.adopt(spans, tracer.op, index)

    # -- mpi: launch, dispatch, primitives --------------------------------
    loop("mpi.cold_launch", lambda _: session.spmd(programs.noop_prog), 0, 1, warm=False)
    loop("mpi.launch", lambda _: session.spmd(programs.noop_prog), 0.02, 20)
    loop("mpi.dispatch_raw", lambda _: session.spmd(programs.noop_prog, x), 0.03)
    primitives = session.spmd(programs.mpi_probe_prog, x.shape[0], 30)
    primitives = {k: max(r[k] for r in primitives.values) for k in primitives[0]}

    # -- distributed: the program untraced, traced, replayed --------------
    reference = repro.core.sthosvd(x, tol=TOL, method=method)

    def same_ranks(ranks):
        if tuple(ranks) != reference.ranks:
            raise AssertionError(f"ranks {ranks} != driver's {reference.ranks}")

    def untraced(_):
        (tucker, _estimate), _spans = session.dist_compress(x)[0]
        same_ranks(tucker.ranks)

    def traced(index, n_ranks=N_RANKS, prefix="distributed"):
        nonlocal ledger
        result = session.dist_compress(x, prefix, n_ranks)
        same_ranks(result[0][0][0].ranks)
        adopt(result, index)
        if n_ranks == N_RANKS:
            ledger = result.ledger

    def replay(index):
        result = session.spmd(programs.replay_prog, x, session.grid, TOL, method)
        same_ranks(result[0][0])
        adopt(result, index)

    def untraced_then_traced(index):
        # Alternating the two cancels drift out of their difference.
        with tracer.span("distributed.compress"):
            untraced(None)
        with tracer.span("trace.compress"):
            traced(index)

    loop("trace.pair", untraced_then_traced, 0.24)
    loop("distributed.replay", replay, 0.12)
    loop("distributed.p1", lambda i: traced(i, 1, "distributed.p1"), 0.06)
    loop("distributed.thread_compress",
         lambda _: session.dist_compress(x, backend="thread"), 0.06)

    # -- tensor, core, data: the sequential path --------------------------
    a = np.ones((1024, 1024))
    loop("tensor.dgemm_1024", lambda _: a @ a, 0.01)
    counts = {}

    def replay_sequential(_):
        ranks, found = programs.replay_sequential(x, TOL, tracer)
        counts.update(found)
        if method == "gram":
            same_ranks(ranks)

    tucker = reference.decomposition
    one_slice = [None] * (x.ndim - 2) + [1, 2]  # one variable, one time step
    loop("core.sthosvd", lambda _: repro.core.sthosvd(x, tol=TOL), 0.08)
    if method != "gram":
        loop("core.seq_compress",
             lambda _: repro.core.sthosvd(x, tol=TOL, method=method), 0.05)
    loop("tensor.replay", replay_sequential, 0.08)
    loop("core.reconstruct", lambda _: tucker.reconstruct(), 0.04)
    loop("core.extract", lambda _: tucker.reconstruct_subtensor(one_slice), 0.01, 5)
    loop("baseline.numpy_sthosvd", lambda _: programs.numpy_sthosvd(x, TOL), 0.05)
    loop("data.center_and_scale",
         lambda _: repro.data.center_and_scale(x, workload.species_mode), 0.03)

    # -- io and cli: through files ----------------------------------------
    part = os.path.join(session.out, "part.npy")
    select = [":"] * (x.ndim - 2) + ["1", "2"]
    loop("io.npy_read", lambda _: np.load(session.input_path), 0.02)
    loop("io.save", lambda _: repro.io.save_tucker(session.model_path, tucker), 0.02)
    loop("io.load", lambda _: repro.io.load_tucker(session.model_path), 0.02)
    model_bytes = repro.io.stored_bytes(session.model_path)
    loop("cli.compress", lambda _: session.cli_compress(parallel), 0.08)
    loop("cli.reconstruct",
         lambda _: session.cli("reconstruct", session.model_path,
                               session.recon_path), 0.04)
    loop("cli.extract",
         lambda _: session.cli("extract", session.model_path, part,
                               "--select", *select), 0.01, 5)
    loop("cli.info", lambda _: session.cli("info", session.model_path), 0.01, 5)

    # -- spans to metrics --------------------------------------------------
    with open(os.path.join(os.path.dirname(session.out),
                           f"trace-{workload.name}.json"), "w") as fh:
        json.dump([span_dict(s) for s in tracer.spans], fh)
    per_op = per_op_seconds(tracer.spans)
    s = {name: statistics.median(values) for name, values in per_op.items()}
    s.setdefault("core.seq_compress", s["core.sthosvd"])

    kernels = (["distributed.svd"] if method == "svd"
               else ["distributed.gram", "distributed.evecs"])
    kernels += ["distributed.norm", "distributed.ttm"]
    by_rank = {}
    for name, start, end, _, op, rank in tracer.spans:
        if name in kernels:
            by_rank[op, rank] = by_rank.get((op, rank), 0.0) + end - start
    skew = [
        max(v for (o, _), v in by_rank.items() if o == op)
        - min(v for (o, _), v in by_rank.items() if o == op)
        for op in {o for o, _ in by_rank}
    ]

    dist_compress = s["distributed.compress"]
    engine = dist_compress if parallel else s["core.seq_compress"]
    launch = s["mpi.launch"]
    dispatch = max(s["mpi.dispatch_raw"] - launch, 0.0)
    tensor_spans = s["tensor.gram"] + s["tensor.eig"] + s["tensor.ttm"]
    gram_flops, ttm_flops = counts["gram_flops"], counts["ttm_flops"]
    peak = 2 * 1024**3 / min(per_op["tensor.dgemm_1024"]) / 1e9
    sections = ledger.section_times()
    modeled = ledger.modeled_time()
    measured = {k.split(".")[1]: s[k] for k in kernels if k != "distributed.norm"}

    metrics = {
        "tensor.gram_s": s["tensor.gram"],
        "tensor.eig_s": s["tensor.eig"],
        "tensor.ttm_s": s["tensor.ttm"],
        "tensor.flops": gram_flops + ttm_flops,
        "tensor.bytes_computed": counts["bytes"],
        "tensor.gram_gflops": gram_flops / s["tensor.gram"] / 1e9,
        "tensor.ttm_gflops": ttm_flops / s["tensor.ttm"] / 1e9,
        "tensor.dgemm_peak_gflops": peak,
        "tensor.ttm_frac_peak": ttm_flops / s["tensor.ttm"] / 1e9 / peak,
        "core.sthosvd_s": s["core.sthosvd"],
        "core.self_s": s["core.sthosvd"] - tensor_spans,
        "core.reconstruct_s": s["core.reconstruct"],
        "core.extract_s": s["core.extract"],
        "core.seq_compress_s": s["core.seq_compress"],
        "baseline.numpy_sthosvd_s": s["baseline.numpy_sthosvd"],
        "distributed.from_global_s": s["distributed.from_global"],
        "distributed.norm_s": s["distributed.norm"],
        "distributed.gram_s": s["distributed.gram"],
        "distributed.evecs_s": s["distributed.evecs"],
        "distributed.ttm_s": s["distributed.ttm"],
        "distributed.svd_s": s["distributed.svd"],
        "distributed.to_tucker_s": s["distributed.to_tucker"],
        "distributed.driver_s": s["distributed.driver"],
        "distributed.driver_self_s":
            s["distributed.driver"] - sum(s[k] for k in kernels),
        "distributed.rank_skew_s": statistics.median(skew),
        "distributed.compress_s": dist_compress,
        "distributed.speedup_vs_seq": s["core.seq_compress"] / dist_compress,
        "distributed.p1_driver_s": s["distributed.p1.driver"],
        "distributed.parallel_efficiency":
            s["distributed.p1.driver"] / (N_RANKS * s["distributed.driver"]),
        "distributed.thread_compress_s": s["distributed.thread_compress"],
        "mpi.cold_launch_s": s["mpi.cold_launch"],
        "mpi.launch_s": launch,
        "mpi.dispatch_s": dispatch,
        "mpi.result_return_s":
            dist_compress - launch - dispatch - s["distributed.prog"],
        "mpi.p2p_rtt_s": primitives["mpi.p2p_rtt_s"],
        "mpi.p2p_mb_s": 8 * (1 << 20) / 1e6 / primitives["mpi.p2p_8mb_s"],
        "mpi.allreduce_s": primitives["mpi.allreduce_s"],
        "mpi.reduce_scatter_s": primitives["mpi.reduce_scatter_s"],
        "mpi.allgather_s": primitives["mpi.allgather_s"],
        "mpi.barrier_s": primitives["mpi.barrier_s"],
        "mpi.messages": ledger.total_messages(),
        "mpi.words": ledger.total_words(),
        "mpi.ledger_flops": ledger.total_flops(),
        "perfmodel.modeled_s": modeled,
        "perfmodel.residual": s["distributed.driver"] / modeled,
        **{
            f"perfmodel.section_share.{k}":
                sections.get(k, 0.0) / sum(sections.values())
            for k in ("gram", "evecs", "ttm", "svd")
        },
        "io.npy_read_s": s["io.npy_read"],
        "io.save_s": s["io.save"],
        "io.load_s": s["io.load"],
        "io.model_bytes": model_bytes,
        "io.save_mb_s": model_bytes / 1e6 / s["io.save"],
        "cli.compress_s": s["cli.compress"],
        "cli.self_s": s["cli.compress"] - s["io.npy_read"]
            - s["data.center_and_scale"] - engine - s["io.save"],
        "cli.reconstruct_s": s["cli.reconstruct"],
        "cli.extract_s": s["cli.extract"],
        "cli.info_s": s["cli.info"],
        "data.center_and_scale_s": s["data.center_and_scale"],
        "trace.overhead_share": (s["trace.compress"] - dist_compress) / dist_compress,
    }
    # Fig. 8 in both currencies: measured kernel seconds of the workload's
    # own factor path beside the ledger's modeled share.
    fig8 = [
        {"section": k, "measured_s": v,
         "measured_share": v / sum(measured.values()),
         "modeled_share": sections.get(k, 0.0)
            / sum(sections.get(j, 0.0) for j in measured)}
        for k, v in measured.items()
    ]
    return {
        "attempted": next(op_ids),
        "failed": 0,
        "failed_checks": [],
        "fig8": fig8,
        "ops": {name: len(values) for name, values in per_op.items()},
        "metrics": metrics,
    }
