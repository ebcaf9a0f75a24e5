"""SciPy is a dependency of the QR path (``method="svd"``) only.

The Gram path runs on NumPy's ``eigh``, so importing ``repro`` and
compressing by Gram eigenvectors never loads SciPy; ``qr_r`` loads its
LAPACK pair on first use, from SciPy's compiled wrapper alone (never the
``scipy.linalg`` package), and ``repro-tucker compress --method svd`` does
that in the parent before any rank is launched.  Each check runs in a
fresh interpreter, because any earlier ``method="svd"`` call in the test
process has loaded SciPy for good.  Only module names are checked.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _run(script: str, *argv: str) -> dict:
    """Run ``script`` in a fresh interpreter; returns the JSON object it
    prints on its last line."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


GRAM_THEN_SVD = """
import json, sys
import repro, repro.cli, repro.core, repro.distributed, repro.io, repro.mpi
from repro.tensor import low_rank_tensor

x = low_rank_tensor((10, 8, 6), (3, 3, 2), seed=7, noise=0.01)
gram = repro.core.sthosvd(x, tol=1e-2)
after_gram = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
svd = repro.core.sthosvd(x, tol=1e-2, method="svd")
print(json.dumps({
    "after_gram": after_gram,
    "after_svd": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "same_ranks": svd.ranks == gram.ranks,
}))
"""


def test_gram_path_never_loads_scipy():
    seen = _run(GRAM_THEN_SVD)
    assert seen["after_gram"] == []
    assert seen["after_svd"] == ["scipy.linalg._flapack"]
    assert seen["same_ranks"]


SPY_ON_LAUNCH = """
import json, sys
import repro.cli, repro.mpi
from repro.tensor.qr import lapack_qr

real = repro.mpi.run_spmd
resolved, linalg = [], []

def spy(*args, **kwargs):
    resolved.append(lapack_qr.cache_info().currsize == 1)
    linalg.append("scipy.linalg" in sys.modules)
    return real(*args, **kwargs)

repro.mpi.run_spmd = spy
status = repro.cli.main(["compress", *sys.argv[1:], "--ranks", "2", "2", "2",
                         "--parallel", "2", "--backend", "thread"])
linalg.append("scipy.linalg" in sys.modules)
print(json.dumps({"status": status, "resolved": resolved, "linalg": linalg}))
"""


@pytest.mark.parametrize("method, resolved", [("svd", True), ("gram", False)])
def test_cli_loads_the_qr_pair_before_launch(tmp_path, method, resolved):
    # Under svd the pair is resolved before the launch, and neither path
    # imports scipy.linalg, before the launch or after the run.
    src, dst = tmp_path / "x.npy", tmp_path / "x.npz"
    np.save(src, np.random.default_rng(3).standard_normal((6, 5, 4)))
    seen = _run(SPY_ON_LAUNCH, str(src), str(dst), "--method", method)
    assert seen == {"status": 0, "resolved": [resolved],
                    "linalg": [False, False]}
    assert dst.exists()
