"""Shared mode-column ring-shift pipeline (Alg. 4's exchange pattern).

Two distributed kernels move local tensors around a mode-``n`` processor
column the same way: at step ``i`` the rank sends its payload ``i`` hops
"down" the column and receives from ``i`` hops "up", so after ``P_n - 1``
steps every rank has seen every column member's block.  Crucially *every
hop ships the same local payload*, which is what makes the schedule
pipelineable: there is nothing to wait for before posting all hops'
``isendrecv`` exchanges up front, and each blocking wait then finds its
peer block already delivered while the later hops stay in flight behind
the caller's compute.

:func:`ring_exchange` is that pipeline, extracted from the ring
``dist_gram`` grew when the deferred-completion transport landed, so the
Gram kernel and the TSQR/SVD kernel
(:func:`~repro.distributed.tsqr.dist_mode_svd`) share one schedule.  Its
charges and hop order are those of the blocking Alg. 4 ring — only when
communication is *initiated* differs; the price of pipelining is memory,
not time: ``len(hops)`` exchanges are in flight instead of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Sequence

import numpy as np

from repro.mpi.comm import Communicator


def unfold_peer(w: Any, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a peer tensor block received off the ring
    (shared by the Gram and TSQR/SVD kernels, which consume each hop's
    block through exactly this view)."""
    arr = np.asarray(w)
    return np.reshape(
        np.moveaxis(arr, mode, 0), (arr.shape[mode], -1), order="F"
    )


@dataclass(frozen=True)
class RingHop:
    """One step of a ring schedule: ship the payload to ``dest``, receive
    the same step's payload from ``source``, matched by ``tag``."""

    dest: int
    source: int
    tag: Hashable


def mode_ring_hops(
    pn: int, my_pn: int, tag: Hashable | None = None
) -> list[RingHop]:
    """The full ``P_n - 1``-step column ring (Alg. 4 lines 6-12).

    Step ``i`` sends to ``(my_pn - i) % pn`` and receives from
    ``(my_pn + i) % pn``.  ``tag`` prefixes each step's wire tag (kernels
    sharing a communicator must not collide); ``None`` keeps the bare step
    index as the tag.
    """
    return [
        RingHop(
            dest=(my_pn - i) % pn,
            source=(my_pn + i) % pn,
            tag=i if tag is None else (tag, i),
        )
        for i in range(1, pn)
    ]


def ring_exchange(
    comm: Communicator,
    payload: Any,
    hops: Sequence[RingHop],
) -> Iterator[tuple[RingHop, Any]]:
    """Run a ring schedule, yielding ``(hop, received_block)`` in hop order.

    Every hop ships the *same* ``payload`` (the ring invariant), so all
    hops' ``isendrecv`` exchanges are posted before the first block is
    consumed; the caller's per-block compute then overlaps the remaining
    in-flight hops, and each hop's charges land at its wait exactly as a
    blocking ``sendrecv`` would charge them.

    The posts happen *at the call*, not at the first iteration — the
    caller's compute between the call and the first block consumption
    (e.g. the Gram kernel's diagonal dgemm) therefore already overlaps
    every hop.  The payload must not be mutated while the exchange is
    live (the usual MPI rule for posted sends).
    """
    requests = [
        comm.isendrecv(payload, dest=h.dest, source=h.source, tag=h.tag)
        for h in hops
    ]

    def _drain() -> Iterator[tuple[RingHop, Any]]:
        for hop, request in zip(hops, requests):
            yield hop, request.wait()

    return _drain()
