"""The code the benchmark runs against ``repro``: SPMD rank programs, the
sequential replay of Alg. 1 and the plain-NumPy baseline.

Rank programs are module-level so the process backend pickles them by
reference and dispatches them to its warm rank pool; this module must be
imported before the first ``run_spmd`` so the forked workers have it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

import numpy as np

from repro.distributed import (
    DistTensor,
    dist_evecs,
    dist_gram,
    dist_mode_svd,
    dist_sthosvd,
    dist_ttm,
)
from repro.mpi import SUM, CartGrid
from repro.tensor.eig import eigendecompose, rank_from_tolerance
from repro.tensor.gram import gram
from repro.tensor.ttm import ttm
from repro.util.flops import gram_flops, ttm_flops

from bench.spans import Tracer


def noop_prog(comm, *payload):
    """Launch (and, with a payload, argument dispatch) and nothing else."""
    return None


def compress_prog(comm, x, grid, tol, method, trace=None):
    """What ``repro-tucker compress --parallel`` runs on every rank:
    grid, block the replicated input, ST-HOSVD, gather the small result.

    Returns ``(result, spans)``; ``result`` is ``(TuckerTensor, estimate)``
    on rank 0 and ``None`` elsewhere.  ``trace`` is the prefix of the span
    names, or ``None`` for the untraced program (``spans`` is then ``None``).
    """
    tracer = Tracer(rank=comm.rank) if trace else None

    def span(name):
        return tracer.span(f"{trace}.{name}") if tracer else nullcontext()

    with span("prog"):
        with span("from_global"):
            dt = DistTensor.from_global(CartGrid(comm, grid), x)
        with span("driver"):
            t = dist_sthosvd(dt, tol=tol, method=method)
        with span("to_tucker"):
            gathered = t.to_tucker()  # collective: every rank participates
    result = (gathered, t.error_estimate()) if comm.rank == 0 else None
    return result, (tracer.spans if tracer else None)


def replay_prog(comm, x, grid, tol, method):
    """The driver's loop rebuilt from the public distributed kernels, one
    span per kernel call.  Both factor paths (Gram + eigenvectors, TSQR
    SVD) are timed on every mode's working tensor; ``method`` picks whose
    factor feeds the TTM, so the returned ranks must equal the driver's.
    """
    tracer = Tracer(rank=comm.rank)
    g = CartGrid(comm, grid)
    y = DistTensor.from_global(g, x)
    with tracer.span("distributed.norm"):
        threshold = tol**2 * y.norm_sq() / y.ndim
    ranks = []
    for n in range(y.ndim):
        pn = g.dims[n]
        with tracer.span("distributed.gram"):
            s_rows = dist_gram(y, n)
        with tracer.span("distributed.evecs"):
            u, _ = dist_evecs(y, s_rows, n, threshold=threshold, min_rank=pn)
        with tracer.span("distributed.svd"):
            u_svd, _ = dist_mode_svd(y, n, threshold=threshold, min_rank=pn)
        if method == "svd":
            u = u_svd
        with tracer.span("distributed.ttm"):
            y = dist_ttm(y, u.T.copy(), n, u.shape[1])
        ranks.append(u.shape[1])
    return tuple(ranks), tracer.spans


def mpi_probe_prog(comm, gram_dim, reps):
    """Median seconds of each transport primitive between the two ranks,
    collectives at the workload's first-mode Gram size."""
    peer = (comm.rank + 1) % comm.size
    rows = gram_dim - gram_dim % comm.size
    matrix = np.ones((rows, gram_dim))
    block = np.ones((rows // comm.size, gram_dim))
    eight_mb = np.ones(1 << 20)
    probes = {
        "mpi.p2p_rtt_s": lambda: comm.sendrecv(1.0, peer, peer),
        "mpi.p2p_8mb_s": lambda: comm.sendrecv(eight_mb, peer, peer),
        "mpi.allreduce_s": lambda: comm.allreduce(matrix, SUM),
        "mpi.reduce_scatter_s": lambda: comm.reduce_scatter_block(matrix, SUM),
        "mpi.allgather_s": lambda: comm.allgather(block),
        "mpi.barrier_s": comm.barrier,
    }
    out = {}
    for name, call in probes.items():
        call()  # first use sizes the window
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
        out[name] = statistics.median(samples)
    return out


def replay_sequential(x, tol, tracer):
    """Alg. 1 on the public ``tensor`` kernels, one span per call.

    Returns the ranks (to compare with ``core.sthosvd``) and the exact flop
    and computed-byte counts of the Gram and TTM calls.
    """
    threshold = tol**2 * float(np.dot(x.reshape(-1, order="F"),
                                      x.reshape(-1, order="F"))) / x.ndim
    y = x
    counts = {"gram_flops": 0, "ttm_flops": 0, "bytes": 0}
    for n in range(x.ndim):
        with tracer.span("tensor.gram"):
            s = gram(y, n)
        with tracer.span("tensor.eig"):
            eig = eigendecompose(s)
            rn = rank_from_tolerance(eig.values, threshold)
            u = np.array(eig.vectors[:, :rn], copy=True)
        counts["gram_flops"] += gram_flops(y.shape, n)
        counts["ttm_flops"] += ttm_flops(y.shape, n, rn)
        counts["bytes"] += 2 * y.nbytes + s.nbytes + u.nbytes  # gram + ttm read y
        with tracer.span("tensor.ttm"):
            y = ttm(y, u, n, transpose=True)
        counts["bytes"] += y.nbytes
    return y.shape, counts


def numpy_sthosvd(x, tol):
    """ST-HOSVD in plain NumPy (``tensordot`` + ``eigh``): the baseline
    that uses nothing of ``repro``."""
    threshold = tol**2 * float(np.sum(x * x)) / x.ndim
    y, factors = x, []
    for n in range(x.ndim):
        others = [m for m in range(x.ndim) if m != n]
        values, vectors = np.linalg.eigh(np.tensordot(y, y, axes=(others, others)))
        tail = np.cumsum(np.clip(values, 0.0, None))  # ascending: tail[i] drops 0..i
        rn = max(1, len(values) - int(np.searchsorted(tail, threshold, "right")))
        u = vectors[:, ::-1][:, :rn]
        y = np.moveaxis(np.tensordot(u.T, y, axes=(1, n)), 0, n)
        factors.append(u)
    return y, factors
