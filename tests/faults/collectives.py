"""Every collective of the communicator, by the op name it enters with,
behind one module-level rank program (so a run rides the warm pool),
and the rank-death check the per-collective crash sweeps share."""

import pickle
import time

import numpy as np
import pytest

from repro.mpi import RankDeadError, SpmdError, run_spmd
from tests.faults.inject import Fault, Faulty

_RUN = {
    "barrier": lambda comm, x: comm.barrier(),
    "bcast": lambda comm, x: comm.bcast(x, root=0),
    "gather": lambda comm, x: comm.gather(x, root=0),
    "allgather": lambda comm, x: comm.allgather(x),
    "scatter": lambda comm, x: comm.scatter(
        None if comm.rank else [x * (k + 1) for k in range(comm.size)]
    ),
    "reduce": lambda comm, x: comm.reduce(x, root=0),
    "ireduce": lambda comm, x: comm.ireduce(x, root=0).wait(),
    "allreduce": lambda comm, x: comm.allreduce(x),
    "reduce_scatter_block": lambda comm, x: comm.reduce_scatter_block(np.tile(x, (comm.size, 1))),
}

#: The op names a collective notes on the status board; all but the
#: barrier move a payload.
OPS = tuple(_RUN)
CARRYING = OPS[1:]


def run_op(comm, op: str):
    """Enter collective ``op`` once with 4 KiB of rank-distinct float64s
    (enough for the process transport to stage them in shared memory)."""
    return _RUN[op](comm, np.random.default_rng(100 + comm.rank).standard_normal(512))


def same(a, b) -> bool:
    """Bit-identical results: the same pickle, dtypes, shapes and bytes
    of every array included."""
    return pickle.dumps(a) == pickle.dumps(b)


def rank_death(fault: Fault, op: str) -> None:
    """The one failure of a 3-rank run of collective ``op`` in which
    ``fault`` SIGKILLs rank ``fault.rank``."""
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as exc_info:
        run_spmd(3, Faulty(run_op, fault), op, backend="process", timeout=60.0)
    assert time.monotonic() - t0 < 20.0
    failures = exc_info.value.failures
    assert set(failures) == {fault.rank}
    error = failures[fault.rank]
    assert isinstance(error, RankDeadError)
    assert (error.dead_rank, error.exitcode) == (fault.rank, -9)
    assert f"rank {fault.rank} died (signal SIGKILL)" in str(error)
    assert f"(last collective: {op}#0)" in str(error)
