"""Stress tests: larger rank counts, message storms, deep communicator trees.

The simulator must stay deterministic and deadlock-free under load — these
are the conditions the distributed algorithms create at scale (many
interleaved collectives on different sub-communicators).
"""

import numpy as np

from repro.mpi import SUM, CartGrid
from tests.conftest import spmd


class TestScaleStress:
    def test_24_ranks_allreduce(self):
        # One node of Edison: the paper's base configuration.
        def prog(comm):
            return float(comm.allreduce(np.array([1.0]), SUM)[0])

        assert spmd(24, prog).values == [24.0] * 24

    def test_message_storm_ordering(self):
        # 200 messages per pair, all tags interleaved: FIFO per tag holds.
        def prog(comm):
            n = 200
            if comm.rank == 0:
                for i in range(n):
                    comm.send(i, dest=1, tag=i % 5)
                return None
            out = {t: [] for t in range(5)}
            for i in range(n):
                out[i % 5].append(comm.recv(source=0, tag=i % 5))
            return all(v == sorted(v) for v in out.values())

        assert spmd(2, prog)[1]

    def test_interleaved_subcommunicator_collectives(self):
        # Rows and columns of a grid run collectives back to back; tag
        # spaces must not collide.
        def prog(comm):
            g = CartGrid(comm, (4, 6))
            row = g.mode_row(0)
            col = g.mode_column(0)
            results = []
            for i in range(10):
                results.append(col.allreduce(comm.rank + i, SUM))
                results.append(row.allreduce(comm.rank * i, SUM))
            return results

        first = spmd(24, prog).values
        second = spmd(24, prog).values
        assert first == second  # determinism under load

    def test_deep_group_tree(self):
        # Repeated halving: world -> halves -> quarters -> ...
        def prog(comm):
            current = comm
            labels = []
            while current.size > 1:
                half = current.size // 2
                upper = current.rank >= half
                labels.append(int(upper))
                current = current.group(
                    range(half, current.size) if upper else range(half)
                )
            return labels

        res = spmd(16, prog)
        # Every rank's path is its rank's binary representation (MSB first).
        for rank, labels in enumerate(res):
            assert len(labels) == 4
            assert int("".join(map(str, labels)), 2) == rank

    def test_concurrent_ring_exchanges(self):
        # Simultaneous sendrecv rings on every row of a grid.
        def prog(comm):
            g = CartGrid(comm, (3, 4))
            row = g.mode_row(0)
            acc = comm.rank
            for _ in range(row.size):
                acc = row.sendrecv(
                    acc, dest=(row.rank + 1) % row.size,
                    source=(row.rank - 1) % row.size,
                )
            return acc

        res = spmd(12, prog)
        # After size hops around the ring each value returns home.
        assert res.values == list(range(12))

    def test_large_payload_allgather(self):
        def prog(comm):
            chunk = np.full(50_000, float(comm.rank))
            gathered = comm.allgather(chunk)
            return sum(float(g[0]) for g in gathered)

        assert spmd(8, prog).values == [28.0] * 8
