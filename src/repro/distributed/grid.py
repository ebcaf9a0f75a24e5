"""Processor-grid selection (paper Sec. VIII-B).

The grid does not change the flop count of ST-HOSVD but strongly affects
communication and local-kernel shapes; the paper tunes over a handful of
heuristic candidates per processor count.  :func:`choose_grid` automates
that: enumerate feasible factorizations of P, keep a balanced shortlist,
and pick the one whose *modeled* ST-HOSVD cost is smallest.  The paper's
observation that the best grids put ``P_1 = 1`` (no communication in the
first, most expensive Gram/TTM) emerges from the model rather than being
hard-coded.

:func:`self_grid` is the other end of the range: the ``1 x ... x 1`` grid
the sequential entry points (:mod:`repro.core`) run the distributed
drivers on.
"""

from __future__ import annotations

from typing import Sequence

from repro.mpi.cart import CartGrid
from repro.mpi.comm import Communicator
from repro.mpi.ledger import CostLedger
from repro.mpi.transport import ThreadTransport
from repro.perfmodel.algorithms import sthosvd_cost
from repro.perfmodel.machine import EDISON, MachineSpec
from repro.perfmodel.scaling import candidate_grids
from repro.util.validation import check_shape_like


def choose_grid(
    n_ranks: int,
    shape: Sequence[int],
    ranks: Sequence[int] | None = None,
    machine: MachineSpec = EDISON,
    max_candidates: int = 50,
) -> tuple[int, ...]:
    """Pick a processor grid for ``n_ranks`` processors and this problem.

    Parameters
    ----------
    n_ranks:
        Total processor count ``P``.
    shape:
        Global tensor dimensions.
    ranks:
        Anticipated reduced dimensions; if unknown, a 10x-per-mode
        compression is assumed (only the *relative* sizes matter for
        ranking grids).
    machine:
        Machine model used to score candidates.

    Returns
    -------
    The modeled-cost-minimizing grid, one entry per mode.
    """
    shape = check_shape_like(shape, "shape")
    if ranks is None:
        ranks = tuple(max(1, s // 10) for s in shape)
    else:
        ranks = check_shape_like(ranks, "ranks")
        if len(ranks) != len(shape):
            raise ValueError(f"ranks {ranks} and shape {shape} differ in order")
    candidates = [
        g
        for g in candidate_grids(n_ranks, shape, max_candidates=max_candidates)
        # A grid extent beyond R_n would make the truncated mode's blocks
        # empty after the TTM; exclude such grids.
        if all(pn <= rn for pn, rn in zip(g, ranks))
    ]
    if not candidates:
        raise ValueError(
            f"no feasible grid for P={n_ranks} on shape {tuple(shape)} with "
            f"ranks {tuple(ranks)}"
        )
    return min(
        candidates,
        key=lambda g: sthosvd_cost(shape, ranks, g, machine).time,
    )


def self_grid(ndim: int) -> CartGrid:
    """An all-ones grid of order ``ndim`` over a one-rank communicator.

    Built in the calling thread: no launch, no rank thread, no sanitizer
    or fault injector, a private ledger.  Every collective of a size-1
    group is an identity, so the distributed drivers run on it as the
    sequential algorithm, on the caller's array.
    """
    comm = Communicator(
        ThreadTransport(), CostLedger(1, EDISON), "self", (0,), 0
    )
    return CartGrid(comm, (1,) * ndim)
