"""Ledger-symmetry property suite: collectives charge rank-independent costs.

The paper's model is bulk-synchronous — a collective completes on every
member simultaneously and charges each of them the same closed-form tree
cost.  This suite pins that property for all nine collectives: identical
(seconds, words, messages) on every rank, under both executor backends,
with the SPMD sanitizer off and on, including *uneven* payloads
(where historical bugs lived: non-root ``scatter`` extrapolating its own
slice, ``gather``/``allgather`` extrapolating ``my_words * P``,
``alltoall`` charging its own row).

Backends come from the package-level ``spmd_backend`` sweep; the
sanitizer toggle is a local parameterization of ``REPRO_SANITIZE``.  At
level 1 a protocol digest rides every message of every exchange round,
uncharged, so each case must charge exactly what it does unsanitized.
Rank functions live at module scope so the process runs ride the warm
pool.
"""

import numpy as np
import pytest

from repro.mpi import SANITIZE_ENV_VAR, SUM
from tests.conftest import spmd_unit


@pytest.fixture(params=[0, 1], ids=["unsanitized", "sanitized"], autouse=True)
def sanitize_mode(request, monkeypatch):
    """Sweep the SPMD sanitizer off/on for every run in the case."""
    monkeypatch.setenv(SANITIZE_ENV_VAR, str(request.param))
    return request.param


def _uneven(rank: int, scale: int = 1) -> np.ndarray:
    """A per-rank array whose word count depends on the rank."""
    return np.arange(float(scale * (rank + 1) + 1)) + rank


def _barrier(comm):
    comm.barrier()


def _bcast(comm):
    comm.bcast(_uneven(2, 5) if comm.rank == comm.size - 1 else None,
               root=comm.size - 1)


def _gather_even(comm):
    comm.gather(np.full(6, float(comm.rank)), root=0)


def _gather_uneven(comm):
    comm.gather(_uneven(comm.rank), root=1)


def _allgather_even(comm):
    comm.allgather(np.full(5, float(comm.rank)))


def _allgather_uneven(comm):
    comm.allgather(_uneven(comm.rank))


def _scatter_even(comm):
    values = None
    if comm.rank == 0:
        values = [np.full(4, float(i)) for i in range(comm.size)]
    comm.scatter(values, root=0)


def _scatter_uneven(comm):
    values = None
    if comm.rank == 1:
        values = [_uneven(i, 3) for i in range(comm.size)]
    comm.scatter(values, root=1)


def _reduce(comm):
    comm.reduce(np.full(7, float(comm.rank)), SUM, root=comm.size - 1)


def _reduce_uneven(comm):
    # NumPy's SUM broadcasts, so a scalar on rank 0 against arrays
    # elsewhere is legal; the charge must still be the largest
    # contribution on every member.
    v = np.float64(2.0) if comm.rank == 0 else np.arange(8.0) + comm.rank
    comm.reduce(v, SUM, root=1)


def _allreduce(comm):
    comm.allreduce(np.full(3, float(comm.rank)), SUM)


def _allreduce_uneven(comm):
    v = np.float64(1.5) if comm.rank == comm.size - 1 else (
        np.arange(6.0) * comm.rank
    )
    comm.allreduce(v, SUM)


def _reduce_scatter_block(comm):
    comm.reduce_scatter_block(
        np.arange(float(3 * comm.size)) + comm.rank, SUM
    )


def _alltoall_even(comm):
    comm.alltoall([np.full(4, float(10 * comm.rank + j))
                   for j in range(comm.size)])


def _alltoall_uneven(comm):
    # Both per-pair sizes and per-rank row totals differ.
    comm.alltoall([_uneven(comm.rank + j) for j in range(comm.size)])


def _ireduce(comm):
    comm.ireduce(np.full(7, float(comm.rank)), SUM, root=comm.size - 1).wait()


def _ireduce_uneven(comm):
    v = np.float64(2.0) if comm.rank == 0 else np.arange(8.0) + comm.rank
    comm.ireduce(v, SUM, root=1).wait()


def _iallreduce(comm):
    comm.iallreduce(np.full(3, float(comm.rank)), SUM).wait()


def _iallreduce_uneven(comm):
    v = np.float64(1.5) if comm.rank == comm.size - 1 else (
        np.arange(6.0) * comm.rank
    )
    comm.iallreduce(v, SUM).wait()


def _ireduce_scatter_block(comm):
    comm.ireduce_scatter_block(
        np.arange(float(3 * comm.size)) + comm.rank, SUM
    ).wait()


def _ireduce_pipelined(comm):
    # Deeper than the double buffer: posts 3 and 4 force-complete rounds
    # 1 and 2; the user waits must still charge exactly once each.
    reqs = [
        comm.ireduce(np.full(5, float(comm.rank + i)), SUM, root=i % comm.size)
        for i in range(4)
    ]
    for req in reqs:
        req.wait()


def _isendrecv_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.isendrecv(np.arange(5.0) + comm.rank, dest=right, source=left).wait()


def _isend_irecv_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    send_req = comm.isend(np.full(6, float(comm.rank)), dest=right)
    recv_req = comm.irecv(source=left)
    recv_req.wait()
    send_req.wait()


COLLECTIVES = [
    _barrier,
    _bcast,
    _gather_even,
    _gather_uneven,
    _allgather_even,
    _allgather_uneven,
    _scatter_even,
    _scatter_uneven,
    _reduce,
    _reduce_uneven,
    _allreduce,
    _allreduce_uneven,
    _reduce_scatter_block,
    _alltoall_even,
    _alltoall_uneven,
    _ireduce,
    _ireduce_uneven,
    _iallreduce,
    _iallreduce_uneven,
    _ireduce_scatter_block,
    _ireduce_pipelined,
    _isendrecv_ring,
    _isend_irecv_ring,
]

#: (blocking, non-blocking) pairs that must charge identically: deferred
#: completion moves *when* the charge lands, never what is charged.
NONBLOCKING_PAIRS = [
    (_reduce, _ireduce),
    (_reduce_uneven, _ireduce_uneven),
    (_allreduce, _iallreduce),
    (_allreduce_uneven, _iallreduce_uneven),
    (_reduce_scatter_block, _ireduce_scatter_block),
]


@pytest.mark.parametrize("prog", COLLECTIVES, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("p", [3, 4])
def test_collective_charges_are_rank_independent(prog, p):
    res = spmd_unit(p, prog)
    rows = [res.ledger.rank_costs(r) for r in range(p)]
    reference = (rows[0].time, rows[0].words_sent, rows[0].messages)
    for rank, row in enumerate(rows):
        assert (row.time, row.words_sent, row.messages) == pytest.approx(
            reference
        ), f"rank {rank} charged {row} != rank 0's {reference} in {prog.__name__}"


@pytest.mark.parametrize(
    "blocking_prog,nb_prog",
    NONBLOCKING_PAIRS,
    ids=lambda f: f.__name__.strip("_") if callable(f) else f,
)
def test_nonblocking_charges_equal_blocking(blocking_prog, nb_prog):
    p = 4
    blocking = spmd_unit(p, blocking_prog)
    nonblocking = spmd_unit(p, nb_prog)
    for rank in range(p):
        b = blocking.ledger.rank_costs(rank)
        nb = nonblocking.ledger.rank_costs(rank)
        assert (b.time, b.words_sent, b.messages) == (
            nb.time, nb.words_sent, nb.messages
        ), f"rank {rank}: {nb_prog.__name__} diverged from {blocking_prog.__name__}"


def _sendrecv_ring_uneven(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.sendrecv(_uneven(comm.rank, 2), dest=right, source=left)


def _isendrecv_ring_uneven(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.isendrecv(_uneven(comm.rank, 2), dest=right, source=left).wait()


def test_isendrecv_charges_equal_sendrecv():
    # Uneven per-rank payloads: each rank's deferred exchange must charge
    # exactly what its blocking one did (send leg from the sent words,
    # recv leg from the *received* words).
    blocking = spmd_unit(4, _sendrecv_ring_uneven)
    deferred = spmd_unit(4, _isendrecv_ring_uneven)
    for rank in range(4):
        b = blocking.ledger.rank_costs(rank)
        d = deferred.ledger.rank_costs(rank)
        assert (b.time, b.words_sent, b.messages) == (
            d.time, d.words_sent, d.messages
        )


def _ring(comm):
    # The shared mode-column ring pipeline (dist_gram / dist_mode_svd):
    # every hop ships the same payload, all hops posted up front.
    from repro.distributed import mode_ring_hops, ring_exchange

    hops = mode_ring_hops(comm.size, comm.rank, tag="ring")
    payload = np.arange(6.0) + comm.rank
    for _hop, _w in ring_exchange(comm, payload, hops):
        pass


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_ring_exchange_charges_are_rank_independent(p):
    res = spmd_unit(p, _ring)
    rows = [res.ledger.rank_costs(r) for r in range(p)]
    reference = (rows[0].time, rows[0].words_sent, rows[0].messages)
    for rank, row in enumerate(rows):
        assert (row.time, row.words_sent, row.messages) == pytest.approx(
            reference
        ), f"rank {rank} charged {row} != rank 0's {reference}"


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_ring_exchange_charges_every_hop_at_full_width(p):
    # P - 1 hops, each a sendrecv of the full 6-word float64 payload:
    # both legs charged, nothing narrowed on the wire.
    res = spmd_unit(p, _ring)
    hops, words = p - 1, 6
    for rank in range(p):
        row = res.ledger.rank_costs(rank)
        assert row.messages == 2 * hops
        assert row.words_sent == 2 * hops * words
        assert row.time == pytest.approx(2 * hops * (words + 1))


def _allgather_f32(comm):
    comm.allgather(np.full(8, float(comm.rank), dtype=np.float32))


def _allreduce_f32(comm):
    comm.allreduce(np.full(8, float(comm.rank), dtype=np.float32), SUM)


def _ring_f32(comm):
    from repro.distributed import mode_ring_hops, ring_exchange

    hops = mode_ring_hops(comm.size, comm.rank, tag="ring32")
    payload = (np.arange(8.0) + comm.rank).astype(np.float32)
    for _hop, _w in ring_exchange(comm, payload, hops):
        pass


NARROW_COLLECTIVES = [_allgather_f32, _allreduce_f32, _ring_f32]


@pytest.mark.parametrize(
    "prog", NARROW_COLLECTIVES, ids=lambda f: f.__name__.strip("_")
)
@pytest.mark.parametrize("p", [3, 4])
def test_narrowed_word_charges_are_rank_independent(prog, p):
    # float32 payloads ship half-width words; the tree-cost charge must
    # stay identical on every member.
    res = spmd_unit(p, prog)
    rows = [res.ledger.rank_costs(r) for r in range(p)]
    reference = (rows[0].time, rows[0].words_sent, rows[0].messages)
    for rank, row in enumerate(rows):
        assert (row.time, row.words_sent, row.messages) == pytest.approx(
            reference
        ), f"rank {rank} charged {row} != rank 0's {reference} in {prog.__name__}"


def _allgather_f64_8(comm):
    comm.allgather(np.full(8, float(comm.rank)))


def test_narrowed_words_charge_half_of_float64():
    # 8 float32 elements are 4 words (ceil(32 bytes / 8)); the same count
    # of float64 elements is 8.  Latency and message counts are identical,
    # so on the unit machine only the word charge moves.
    narrow = spmd_unit(4, _allgather_f32)
    wide = spmd_unit(4, _allgather_f64_8)
    for rank in range(4):
        n = narrow.ledger.rank_costs(rank)
        w = wide.ledger.rank_costs(rank)
        assert n.messages == w.messages
        assert 2 * n.words_sent == w.words_sent


def _sub_communicator_battery(comm):
    # Collectives on split-off communicators must stay symmetric within
    # each group as well (each group has its own sequence numbers and,
    # sanitized, its own digest stream).
    sub = comm.split(color=comm.rank % 2)
    sub.gather(_uneven(sub.rank), root=0)
    sub.alltoall([_uneven(sub.rank + j) for j in range(sub.size)])
    sub.barrier()


def test_sub_communicator_collectives_stay_symmetric():
    res = spmd_unit(4, _sub_communicator_battery)
    rows = [res.ledger.rank_costs(r) for r in range(4)]
    # Groups {0,2} and {1,3} ran identical programs on equal-sized groups
    # with rank-symmetric payloads... but payloads depend on *group* rank,
    # so symmetry must hold within each parity class.
    for a, b in ((0, 2), (1, 3)):
        assert (rows[a].time, rows[a].words_sent, rows[a].messages) == (
            rows[b].time, rows[b].words_sent, rows[b].messages
        )
