"""Smoke tests: the fast example scripts must run end to end.

The examples are user-facing deliverables; these tests execute the quick
ones in a subprocess and check their key output lines.  The two long-running
studies (combustion_compression, generate_paper_tables) are exercised via
the benchmark suite and repro.report tests instead.
"""

import os
import subprocess
import sys


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
EXAMPLES = os.path.join(ROOT, "examples")


def _run(name: str, timeout: float = 300.0) -> str:
    # The examples import ``repro`` from the checkout's ``src``: pytest's
    # ``pythonpath`` setting reaches only the pytest process, not a child.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, (
        f"{name} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "compression ratio" in out
    assert "partial" in out


def test_subtensor_analysis():
    out = _run("subtensor_analysis.py")
    assert "full tensor was never formed" in out


def test_parallel_compression():
    out = _run("parallel_compression.py")
    assert "agreement with sequential reference" in out
    assert "gram" in out


def test_custom_machine_study():
    out = _run("custom_machine_study.py")
    assert "edison-calibrated" in out
    assert "efficiency" in out
