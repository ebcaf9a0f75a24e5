"""Property-based tests (hypothesis) for the simulated MPI collectives.

Each collective must agree with the obvious local computation for arbitrary
array shapes, rank counts, and reduction operators.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpi import MAX, MIN, SUM
from repro.util.seeding import rng_for
from tests.conftest import spmd

ranks = st.integers(1, 6)
lengths = st.integers(1, 20)
ops = st.sampled_from([SUM, MAX, MIN])


def _values(p, length, seed):
    rng = rng_for(seed, "mpi-prop", p, length)
    return [rng.standard_normal(length) for _ in range(p)]


@given(p=ranks, length=lengths, seed=st.integers(0, 2**16), op=ops)
@settings(max_examples=25, deadline=None)
def test_allreduce_matches_local_fold(p, length, seed, op):
    values = _values(p, length, seed)

    def prog(comm):
        return comm.allreduce(values[comm.rank], op)

    expected = values[0]
    for v in values[1:]:
        expected = op(expected, v)
    for result in spmd(p, prog):
        np.testing.assert_allclose(result, expected, atol=1e-12)


@given(p=ranks, length=lengths, seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_allgather_collects_everything_in_order(p, length, seed):
    values = _values(p, length, seed)

    def prog(comm):
        return comm.allgather(values[comm.rank])

    for result in spmd(p, prog):
        assert len(result) == p
        for r, v in zip(result, values):
            np.testing.assert_array_equal(r, v)


@given(p=ranks, seed=st.integers(0, 2**16), root=st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_bcast_from_any_root(p, seed, root):
    root = root % p
    payload = rng_for(seed, "bcast", p).standard_normal(7)

    def prog(comm):
        value = payload if comm.rank == root else None
        return comm.bcast(value, root=root)

    for result in spmd(p, prog):
        np.testing.assert_array_equal(result, payload)


@given(p=st.integers(2, 6), blocks=st.integers(1, 4), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_reduce_scatter_equals_reduce_then_slice(p, blocks, seed):
    total = p * blocks
    arrays = _values(p, total, seed)

    def prog(comm):
        return comm.reduce_scatter_block(arrays[comm.rank], SUM)

    expected_total = np.sum(arrays, axis=0)
    results = spmd(p, prog)
    for rank, block in enumerate(results):
        np.testing.assert_allclose(
            block, expected_total[rank * blocks : (rank + 1) * blocks],
            atol=1e-12,
        )


@given(p=st.integers(2, 6), seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_ring_sendrecv_is_permutation(p, seed):
    values = [float(v) for v in rng_for(seed, "ring", p).standard_normal(p)]

    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        return comm.sendrecv(values[comm.rank], dest=right, source=left)

    results = spmd(p, prog).values
    assert sorted(results) == sorted(values)
    for rank, received in enumerate(results):
        assert received == values[(rank - 1) % p]


@given(
    p=st.integers(2, 6),
    colors=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_group_partitions_exactly(p, colors, seed):
    colors = colors[:p]

    def prog(comm):
        sub = comm.group(
            [r for r in range(comm.size) if colors[r] == colors[comm.rank]]
        )
        return sorted(sub.allgather(comm.rank))

    results = spmd(p, prog)
    for rank, members in enumerate(results):
        expected = sorted(r for r in range(p) if colors[r] == colors[rank])
        assert members == expected
