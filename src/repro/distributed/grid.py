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
        Fixed reduced dimensions, or ``None`` for a tolerance-driven run.
        Fixed ranks rule out grids with ``P_n > R_n`` (the truncated
        mode's blocks would be empty after the TTM).  Without them a
        10x-per-mode compression is assumed (only the *relative* sizes
        matter for ranking grids), and grids within it are preferred: a
        larger ``P_n`` floors the threshold rank and keeps more of the
        core than the tolerance asks for.  When no grid fits the guess,
        every grid that fits the tensor still runs — ``dist_sthosvd``
        floors threshold ranks at ``P_n`` — and is scored that way.
        Grids are scored in increasing mode order; a tolerance-driven
        ``dist_sthosvd`` keeps that order on a grid that divides the
        mode its plan would put first.
    machine:
        Machine model used to score candidates.

    Returns
    -------
    The modeled-cost-minimizing grid, one entry per mode.
    """
    shape = check_shape_like(shape, "shape")
    grids = candidate_grids(n_ranks, shape, max_candidates=max_candidates)
    if ranks is None:
        guess = [max(1, s // 10) for s in shape]
        fitting = [g for g in grids if all(p <= r for p, r in zip(g, guess))]
        return min(
            fitting or grids,
            key=lambda g: sthosvd_cost(
                shape, tolerance_ranks(guess, shape, g), g, machine
            ).time,
        )
    ranks = check_shape_like(ranks, "ranks")
    if len(ranks) != len(shape):
        raise ValueError(f"ranks {ranks} and shape {shape} differ in order")
    candidates = [g for g in grids if all(pn <= rn for pn, rn in zip(g, ranks))]
    if not candidates:
        raise ValueError(
            f"no feasible grid for P={n_ranks} on shape {tuple(shape)} with "
            f"ranks {tuple(ranks)}"
        )
    return min(
        candidates,
        key=lambda g: sthosvd_cost(shape, ranks, g, machine).time,
    )


def tolerance_ranks(
    ranks: Sequence[int], shape: Sequence[int], grid: Sequence[int]
) -> tuple[int, ...]:
    """``ranks`` as a tolerance-driven ``dist_sthosvd`` on ``grid`` would
    keep them: at least ``P_n`` per mode, at most ``I_n``."""
    return tuple(min(s, max(r, p)) for r, s, p in zip(ranks, shape, grid))


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
