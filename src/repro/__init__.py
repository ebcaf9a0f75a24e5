"""repro — parallel Tucker tensor compression for large-scale scientific data.

A from-scratch Python reproduction of W. Austin, G. Ballard, T. G. Kolda,
*Parallel Tensor Compression for Large-Scale Scientific Data* (IPDPS 2016),
the system that became TuckerMPI.  See README.md's "Layout" for the
system inventory; the ``benchmarks/`` suite prints paper-vs-measured
results (``python -m pytest benchmarks -s``).

Quick start (sequential)::

    import numpy as np
    from repro import sthosvd
    from repro.data import hcci_proxy, center_and_scale

    ds = hcci_proxy()
    x, scaling = center_and_scale(ds.tensor, ds.species_mode)
    result = sthosvd(x, tol=1e-3)
    print(result.ranks, result.decomposition.compression_ratio)

Quick start (distributed, on the simulated MPI runtime)::

    from repro.mpi import run_spmd, CartGrid
    from repro.distributed import DistTensor, dist_sthosvd

    def program(comm):
        grid = CartGrid(comm, (2, 2, 1, 1))
        dt = DistTensor.from_global(grid, x)
        return dist_sthosvd(dt, tol=1e-3).to_tucker()

    tucker = run_spmd(4, program)[0]

Subpackages
-----------
``repro.core``         sequential Tucker algorithms (ST-HOSVD, HOOI)
``repro.distributed``  the paper's parallel algorithms (Algs. 3-5 + drivers)
``repro.mpi``          simulated distributed-memory message-passing runtime
``repro.tensor``       dense tensor kernels (unfoldings, TTM, Gram, eig)
``repro.perfmodel``    alpha-beta-gamma performance model (Secs. V-VI)
``repro.data``         synthetic combustion-like datasets (Sec. VII proxies)
``repro.io``           compressed-model serialization
``repro.config``       typed runtime configuration (RuntimeConfig) and the
                       single resolver for every ``REPRO_*`` switch
"""

from repro.config import RuntimeConfig
from repro.core import (
    HooiResult,
    SthosvdResult,
    TuckerTensor,
    compression_ratio,
    hooi,
    max_abs_error,
    normalized_rms,
    sthosvd,
)

__version__ = "1.0.0"

__all__ = [
    "RuntimeConfig",
    "TuckerTensor",
    "SthosvdResult",
    "HooiResult",
    "sthosvd",
    "hooi",
    "normalized_rms",
    "max_abs_error",
    "compression_ratio",
    "__version__",
]
