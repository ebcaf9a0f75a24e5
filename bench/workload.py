"""One run of one workload, as a child process of ``bench.run``.

The stage process makes the input and never imports ``repro``.  It forks
one *session* after another: a session imports ``repro``, sets up, runs
its share of the closed loops and exits, so every session pays a fresh
process's set-up and the run's timings are pooled over several rank pools.
``measure`` is the untraced run (end-to-end metrics), ``trace`` the traced
one (per-layer metrics).  The stage writes one JSON object to ``--result``
and leaves no process or shared-memory segment behind.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import statistics
import sys
import time
import traceback

import numpy as np

from bench.hygiene import processes
from bench.spans import summary
from bench.workloads import N_RANKS, TOL, WORKLOADS, base_tensor, permuted

#: Sessions per untraced run.  Each gives one ``setup_s`` sample and a
#: third of the timed operations.
SESSIONS = 3

#: Shares of ``--seconds``: compressions, reconstructions.
COMPRESS_SHARE, RECONSTRUCT_SHARE = 0.7, 0.25


def in_fork(fn, *args):
    """Run ``fn(*args)`` in a forked copy of this process and return its
    JSON-able result.  The copy stops its rank pools and the resource
    tracker before it exits."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                result = fn(*args)
            finally:
                shut_down()
            with os.fdopen(write_end, "w") as fh:
                json.dump(result, fh)
            status = 0
        except BaseException:  # the parent sees the status; nothing to re-raise into
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked {fn.__name__} (pid {pid}) ended with wait status {status}")
    return json.loads(text)


def shut_down():
    """Stop the rank pools, then the multiprocessing resource tracker,
    which would otherwise outlive this process as an orphan."""
    if "repro.mpi" in sys.modules:
        sys.modules["repro.mpi"].shutdown_worker_pools()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def host_fingerprint():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh
                  if line.startswith("model name")]
    return {"nproc": os.cpu_count(), "cpu": models[0] if models else "unknown",
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


class Session:
    """The workload's operations, built inside the timed set-up."""

    def __init__(self, workload, x, out):
        # Imported here, not at module level, because set-up time starts at
        # ``import repro``; bench.programs must be in before the first fork.
        import repro.cli
        import repro.core
        import repro.distributed
        import repro.io
        import repro.mpi

        import bench.programs

        self.repro = repro
        self.programs = bench.programs
        self.workload = workload
        self.out = out
        self.input_path = os.path.join(out, "in.npy")
        self.model_path = os.path.join(out, "model.npz")
        self.recon_path = os.path.join(out, "recon.npy")
        self.x = x
        if workload.kind == "cli":
            np.save(self.input_path, x)  # the user's file; part of set-up
        if workload.kind != "seq":
            self.grid = repro.distributed.choose_grid(N_RANKS, x.shape)

    # -- the operations ---------------------------------------------------

    def spmd(self, prog, *args, n_ranks=N_RANKS, backend="process"):
        return self.repro.mpi.run_spmd(n_ranks, prog, *args, backend=backend)

    def dist_compress(self, x, trace=None, n_ranks=N_RANKS, backend="process"):
        grid = self.grid if n_ranks == N_RANKS else (1,) * x.ndim
        return self.spmd(
            self.programs.compress_prog, x, grid, TOL, self.workload.method,
            trace, n_ranks=n_ranks, backend=backend,
        )

    def cli(self, *argv):
        """``repro-tucker`` in-process; returns what it printed."""
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = self.repro.cli.main(list(argv))
        if status != 0:
            raise RuntimeError(f"repro-tucker {argv[0]} exited {status}")
        return captured.getvalue()

    def cli_compress(self, parallel=True):
        argv = ["compress", self.input_path, self.model_path, "--tol", str(TOL),
                "--species-mode", str(self.workload.species_mode),
                "--method", self.workload.method]
        if parallel:
            argv += ["--parallel", str(N_RANKS), "--backend", "process"]
        return self.cli(*argv)

    def compress(self):
        """One end-to-end compression; the caller waits for it."""
        kind = self.workload.kind
        if kind == "seq":
            return self.repro.core.sthosvd(self.x, tol=TOL)
        if kind == "dist":
            return self.dist_compress(self.x)[0][0]
        return self.cli_compress()

    def outcome(self, raw):
        """``(TuckerTensor, error estimate)`` of what :meth:`compress`
        returned; not part of the timed operation."""
        kind = self.workload.kind
        if kind == "seq":
            return raw.decomposition, raw.error_estimate()
        if kind == "dist":
            return raw
        estimate = re.search(r"error \(est\.\) : (\S+)", raw)
        tucker, _ = self.repro.io.load_tucker(self.model_path)
        return tucker, float(estimate.group(1)) if estimate else float("nan")

    def reconstruct(self, tucker):
        if self.workload.kind == "cli":
            self.cli("reconstruct", self.model_path, self.recon_path)
        else:
            for _ in range(self.workload.recon_batch):
                tucker.reconstruct()

    # -- correctness ------------------------------------------------------

    def check_outputs(self):
        """The once-per-run checks; returns what was found and the names of
        the checks that failed."""
        from repro.data import center_and_scale

        kind = self.workload.kind
        x = self.x
        if kind == "cli":
            x, _ = center_and_scale(x, self.workload.species_mode)
        reference = self.repro.core.sthosvd(x, tol=TOL, method=self.workload.method)
        tucker, estimate = self.outcome(self.compress())
        x_hat = tucker.reconstruct()
        norm = float(np.linalg.norm(x.reshape(-1, order="F")))
        checks = {}
        if kind != "seq":
            gap = reference.decomposition.reconstruct()
            gap -= x_hat
            checks["reconstruction_equals_sequential"] = (
                float(np.linalg.norm(gap.reshape(-1, order="F"))) <= 1e-10 * norm
            )
            del gap
        residual = x - x_hat
        error = float(np.linalg.norm(residual.reshape(-1, order="F"))) / norm
        del residual
        # The estimate is exact for ST-HOSVD; the CLI prints four digits of it.
        exact = 1e-3 if kind == "cli" else 1e-6
        checks.update({
            "ranks_equal_sequential": tucker.ranks == reference.ranks,
            "error_within_tol": error <= TOL,
            "estimate_within_tol": estimate <= TOL,
            "estimate_equals_error": abs(estimate - error) <= exact * error,
            "factors_orthonormal": all(
                np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-8
                for u in tucker.factors
            ),
        })
        if kind == "cli":
            # One variable at one time step, through the files.
            select = [":"] * (x.ndim - 2) + ["1", "2"]
            part = os.path.join(self.out, "part.npy")
            self.cli("reconstruct", self.model_path, self.recon_path)
            self.cli("extract", self.model_path, part, "--select", *select)
            full = np.load(self.recon_path)
            checks["extract_equals_reconstruct_slice"] = bool(
                np.allclose(np.load(part)[..., 0, 0], full[..., 1, 2],
                            rtol=0, atol=1e-12 * np.abs(full).max())
            )
            full -= x_hat
            checks["reconstruct_file_equals_model"] = (
                float(np.linalg.norm(full.reshape(-1, order="F"))) <= 1e-12 * norm
            )
        return {
            "ranks": list(reference.ranks), "error": error,
            "error_estimate": estimate,
            "compression_ratio": tucker.compression_ratio,
            "checks_run": sorted(checks),
            "failed_checks": sorted(name for name, ok in checks.items() if not ok),
        }


def set_up(workload, x, out, warm_up=True):
    """The timed set-up: ``import repro`` to the end of the second warm-up
    compression (cold pool fork, arena and windows, the CLI's input file)."""
    start = time.perf_counter()
    session = Session(workload, x, out)
    if warm_up:
        for _ in range(2):
            session.compress()
    return session, time.perf_counter() - start


def peak_rss_mb():
    """This process's ``VmHWM`` plus its children's (the rank workers and
    the multiprocessing resource tracker)."""
    me = os.getpid()
    total_kb = 0
    for pid in [me] + [pid for pid, _, ppid, _ in processes() if ppid == me]:
        with contextlib.suppress(OSError), open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def measure_session(workload, x, out, seconds, check):
    """One session of the untraced run: set up, time this session's share
    of the two closed loops (one caller, which waits for every operation),
    read the peak memory and, in the session that checks, check the outputs.

    Every compression is returned as ``[seconds, ranks, error estimate]``,
    ``[seconds, None, None]`` if it raised.
    """
    session, setup_s = set_up(workload, x, out)
    compress, first_error, tucker = [], None, None
    stop = time.perf_counter() + COMPRESS_SHARE * seconds
    while len(compress) < 3 or time.perf_counter() < stop:
        start = time.perf_counter()
        try:
            raw = session.compress()
            elapsed = time.perf_counter() - start
            tucker, estimate = session.outcome(raw)
            compress.append([elapsed, list(tucker.ranks), estimate])
        except Exception:  # an op that raises is a failed op, not a crash
            compress.append([time.perf_counter() - start, None, None])
            first_error = first_error or traceback.format_exc()
    reconstruct = []
    if tucker is not None:
        session.reconstruct(tucker)  # the first call sizes its buffers
        stop = time.perf_counter() + RECONSTRUCT_SHARE * seconds
        while len(reconstruct) < 3 or time.perf_counter() < stop:
            start = time.perf_counter()
            session.reconstruct(tucker)
            reconstruct.append((time.perf_counter() - start) / workload.recon_batch)
    result = {"setup_s": setup_s, "compress": compress, "reconstruct": reconstruct,
              "first_error": first_error, "peak_rss_mb": peak_rss_mb()}
    if check:  # after the peak is read: the checks' temporaries are not the program's
        result["check"] = session.check_outputs()
    return result


def measure(workload, x, out, seconds):
    """The untraced run: ``SESSIONS`` sessions, their operations pooled."""
    sessions, walls = [], []
    for index in range(SESSIONS):
        start = time.perf_counter()
        sessions.append(in_fork(measure_session, workload, x, out,
                                seconds / SESSIONS, index == SESSIONS - 1))
        walls.append(time.perf_counter() - start)
    check = sessions[-1]["check"]
    ops = [op for s in sessions for op in s["compress"]]
    bad_ops = sum(
        1 for _, ranks, estimate in ops
        if ranks != check["ranks"] or not estimate <= TOL
    )
    reconstruct = [t for s in sessions for t in s["reconstruct"]]
    attempted = len(ops) + len(reconstruct)
    compress_s = summary([op[0] for op in ops])
    reconstruct_s = summary(reconstruct) if reconstruct else None
    input_mb = x.nbytes / 1e6
    return {
        "attempted": attempted,
        "failed": attempted if check["failed_checks"] or not reconstruct else bad_ops,
        "failed_checks": check["failed_checks"],
        "first_error": next((s["first_error"] for s in sessions if s["first_error"]), None),
        "check": check,
        "input_mb": input_mb,
        "session_wall_s": walls,
        "setup_s_samples": [s["setup_s"] for s in sessions],
        "compress_s_samples": [[op[0] for op in s["compress"]] for s in sessions],
        "reconstruct_s_samples": [s["reconstruct"] for s in sessions],
        "peak_rss_mb_samples": [s["peak_rss_mb"] for s in sessions],
        "compress_s": compress_s,
        "reconstruct_s": reconstruct_s,
        "metrics": {
            "setup_s": statistics.median(s["setup_s"] for s in sessions),
            "compress_s": compress_s["median"],
            "input_mb_s": input_mb / compress_s["median"],
            "reconstruct_s": reconstruct_s["median"] if reconstruct else None,
            "compression_ratio": check["compression_ratio"],
            "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
        },
    }


def trace_session(workload, x, out, seconds):
    from bench.layers import trace

    # The traced run times the cold launch itself: no warm-up.
    session, _ = set_up(workload, x, out, warm_up=False)
    return trace(session, seconds)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench.workload")
    parser.add_argument("stage", choices=("measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    shape = workload.selftest_shape if args.selftest else workload.shape
    cache = os.path.join(os.path.dirname(args.out), "cache")
    path = os.path.join(cache, f"{workload.name}-{'x'.join(map(str, shape))}.npy")
    if not os.path.exists(path):  # once per checkout, like a build product
        os.makedirs(cache, exist_ok=True)
        in_fork(base_tensor, workload, shape, path)
    x = permuted(np.load(path), args.seed)
    datagen_s = time.perf_counter() - start

    if args.stage == "measure":
        result = measure(workload, x, args.out, args.seconds)
    else:
        result = in_fork(trace_session, workload, x, args.out, args.seconds)
    result.update(datagen_s=datagen_s, host=host_fingerprint())
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
