"""The repo benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m bench.run [--seed N] [--trace] [--workload NAME]
    python3 -m bench.run --selftest

Runs each workload as one child (``bench.workload``) in its own session
under a wall limit, sweeps up after it, prints every metric by name with
its unit, and ends with one JSON line per workload: ``correct``,
``attempted``, ``failed``, ``metrics``.  Exits non-zero if an operation or
a check failed or anything was left behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):  # run as a script: make ``bench`` importable
    sys.path.insert(0, ROOT)

from bench import hygiene  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

OUT = os.path.join(ROOT, "bench", "out")

#: A run must end within 180 s whatever happens.
RUN_LIMIT = 170.0


#: glibc keeps freed memory inside the process (no mmap per large array, no
#: trimming), the classic setting for MPI codes.  On this kind of box the
#: hypervisor takes free pages back after about two seconds and the next
#: first touch of each costs 5 to 25 ms per MB at random, which is the
#: host's noise and not the program's time; see README.md, "Environment".
MALLOC_PINS = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def child_env():
    """What every stage runs under: one BLAS thread per process (two ranks
    on two cores), production defaults (no ambient ``REPRO_*`` knob)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.update(MALLOC_PINS)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def commit():
    """The checkout's commit, where the checkout is a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    found = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    return found.stdout.strip() or None


def start_stage(stage, workload, out, args):
    """Start one child stage; returns it and the path its result goes to."""
    result_path = os.path.join(out, f"{stage}.json")
    argv = [sys.executable, "-m", "bench.workload", stage,
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", out, "--result", result_path]
    if args.selftest:
        argv.append("--selftest")
    return hygiene.Stage(argv, child_env(), ROOT), result_path


def run_stage(stage, workload, out, args):
    """Run one child stage; returns ``(result or None, problems)``."""
    child, result_path = start_stage(stage, workload, out, args)
    try:
        status, leftovers = child.wait(RUN_LIMIT)
    except BaseException:  # interrupted: still leave nothing behind
        child.finish()
        raise
    problems = [f"{stage}: left behind {item}" for item in leftovers]
    if status is None:
        problems.append(f"{stage}: killed at its {RUN_LIMIT:.0f} s wall limit")
    elif status != 0:
        problems.append(f"{stage}: exited with status {status}")
    if status == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            return json.load(fh), problems
    return None, problems


def run_workload(name, args, contract):
    """One run of one workload; returns the result object and the details."""
    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    detail = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": commit(),
              "gated": any(w["name"] == name for w in contract["workloads"]),
              "loadavg_before": os.getloadavg()}
    final, problems = run_stage("trace" if args.trace else "measure", name, out, args)
    shutil.rmtree(out, ignore_errors=True)  # the workload's files; results stay

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}
    metrics = {}
    if final is not None and "metrics" in final:
        for metric, unit in units.items():
            value = final["metrics"].get(metric)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"metric {metric} is missing or not finite")
            else:
                metrics[metric] = {"value": value, "unit": unit}
        problems += [f"check failed: {c}" for c in final["failed_checks"]]
        if final.get("first_error"):
            problems.append("an operation raised:\n" + final["first_error"])
        attempted, failed = final["attempted"], final["failed"]
        detail.update({k: v for k, v in final.items() if k != "metrics"})
    else:
        attempted = failed = 1  # the run itself is the operation that failed
    if problems and not failed:
        failed = attempted  # nothing measured beside a leak or a crash counts
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail.update(result=result, problems=problems,
                  loadavg_after=os.getloadavg())
    with open(os.path.join(OUT, f"result-{name}{'-trace' if args.trace else ''}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)
    return result, detail


def report(name, result, detail):
    """Every metric by name with its unit, then what went wrong, if anything."""
    print(f"== {name} (seed {detail['seed']}, {detail['seconds']:g} s, "
          f"{'traced' if detail['trace'] else 'untraced'}"
          f"{'' if detail['gated'] else ', recorded only'}) ==")
    if "datagen_s" in detail:
        print(f"  datagen_s (load generator, not in setup_s) {detail['datagen_s']:.3f} s")
    for metric, entry in result["metrics"].items():
        line = f"  {metric:<34} {entry['value']:.6g} {entry['unit']}"
        spread = detail.get(metric)
        if isinstance(spread, dict):
            line += (f"   n={spread['n']} q1={spread['q1']:.4g} q3={spread['q3']:.4g} "
                     f"min={spread['min']:.4g}")
            if "tail_value" in spread:
                line += f" p{spread['tail_percentile']:.0f}={spread['tail_value']:.4g}"
        print(line)
    if "check" in detail:
        print(f"  ranks {tuple(detail['check']['ranks'])}  error {detail['check']['error']:.3e}"
              f"  estimate {detail['check']['error_estimate']:.3e}")
    if detail.get("fig8"):
        print("  section   measured_s  measured_share  modeled_share")
        for row in detail["fig8"]:
            print(f"  {row['section']:<9} {row['measured_s']:>10.4g}  "
                  f"{row['measured_share']:>14.3f}  {row['modeled_share']:>13.3f}")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")


#: The once-per-run checks by workload kind; the selftest asserts each ran.
CHECKS = {
    "seq": {"ranks_equal_sequential", "error_within_tol", "estimate_within_tol",
            "estimate_equals_error", "factors_orthonormal"},
}
CHECKS["dist"] = CHECKS["seq"] | {"reconstruction_equals_sequential"}
CHECKS["cli"] = CHECKS["dist"] | {"extract_equals_reconstruct_slice",
                                  "reconstruct_file_equals_model"}


def selftest(args, contract):
    """Every workload at a tiny shape, both modes, plus the kill test."""
    args.selftest, args.seconds = True, 2.0
    failures = []
    for trace in (0, 1):
        args.trace = trace
        for name, workload in WORKLOADS.items():
            result, detail = run_workload(name, args, contract)
            problems = list(detail["problems"])
            if not trace and result["correct"]:
                missing = CHECKS[workload.kind] - set(detail["check"]["checks_run"])
                problems += [f"check did not run: {c}" for c in sorted(missing)]
            print(f"selftest {name} trace={trace}: {problems or 'ok'}")
            if problems or not result["correct"]:
                failures.append(name)
    # A stage killed mid-run: its rank workers and segments survive it, the
    # sweep must find and remove them all.
    name = "dist-small"
    out = os.path.join(OUT, name)
    os.makedirs(out, exist_ok=True)
    args.seconds = 60.0
    child, _ = start_stage("measure", name, out, args)
    deadline = time.monotonic() + 30.0
    while len(hygiene.session_members(child.sid)) < 5 and time.monotonic() < deadline:
        time.sleep(0.05)  # stage, session, two ranks, resource tracker
    time.sleep(0.5)
    os.kill(child.proc.pid, signal.SIGKILL)
    child.proc.wait()
    leftovers = child.finish()
    clean = (not hygiene.session_members(child.sid)
             and not (hygiene.segments() - child.segments_before))
    try:
        os.waitpid(-1, os.WNOHANG)
        clean = False  # a descendant is still ours to wait for
    except ChildProcessError:
        pass
    print(f"selftest kill: swept {len(leftovers)} leftovers, "
          f"{'clean' if clean else 'NOT clean'} afterwards")
    if not (leftovers and clean):
        failures.append("kill")
    shutil.rmtree(out, ignore_errors=True)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all four, one after another; "
                             "BENCHMARK.json gates three, dist-small is recorded only)")
    parser.add_argument("--seed", type=int, default=1,
                        help="reaches only the input generators")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run, per-layer metrics")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except KeyboardInterrupt:  # run_stage has swept up already
        print("bench.run: interrupted", file=sys.stderr)
        return 130


def run(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench.run: src/repro is missing: nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    hygiene.become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    if args.selftest:
        return selftest(args, contract)
    status = 0
    lines = []
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result, detail = run_workload(name, args, contract)
        report(name, result, detail)
        lines.append(json.dumps(result))
        if not result["correct"]:
            status = 1
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
