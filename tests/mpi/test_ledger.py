"""Cost-ledger accounting tests, including unit-machine hand counts."""

import math

import numpy as np
import pytest

from repro.mpi import SUM, CostLedger
from repro.perfmodel.machine import UNIT, MachineSpec
from tests.conftest import spmd_unit


class TestLedgerBasics:
    def test_charge_time_accumulates(self):
        ledger = CostLedger(2, UNIT)
        ledger.charge_time(0, 1.5)
        ledger.charge_time(0, 0.5)
        assert ledger.rank_costs(0).time == 2.0
        assert ledger.rank_costs(1).time == 0.0

    def test_modeled_time_is_max_over_ranks(self):
        ledger = CostLedger(3, UNIT)
        ledger.charge_time(0, 1.0)
        ledger.charge_time(2, 5.0)
        assert ledger.modeled_time() == 5.0

    def test_charge_flops_uses_gamma(self):
        machine = MachineSpec(alpha=0, beta=0, gamma=2.0)
        ledger = CostLedger(1, machine)
        ledger.charge_flops(0, 10)
        assert ledger.rank_costs(0).time == 20.0
        assert ledger.total_flops() == 10

    def test_negative_charges_rejected(self):
        ledger = CostLedger(1, UNIT)
        with pytest.raises(ValueError):
            ledger.charge_time(0, -1.0)
        with pytest.raises(ValueError):
            ledger.charge_flops(0, -5)

    def test_memory_high_water_mark(self):
        ledger = CostLedger(1, UNIT)
        ledger.note_memory(0, 100)
        ledger.note_memory(0, 50)
        assert ledger.rank_costs(0).peak_memory_words == 100

    def test_invalid_n_ranks(self):
        with pytest.raises(ValueError):
            CostLedger(0, UNIT)


class TestSections:
    def test_default_section(self):
        ledger = CostLedger(1, UNIT)
        ledger.charge_time(0, 1.0)
        assert ledger.section_times() == {"other": 1.0}

    def test_nested_sections_innermost_wins(self):
        ledger = CostLedger(1, UNIT)
        with ledger.section("outer"):
            ledger.charge_time(0, 1.0)
            with ledger.section("inner"):
                ledger.charge_time(0, 2.0)
            ledger.charge_time(0, 4.0)
        times = ledger.section_times()
        assert times["outer"] == 5.0
        assert times["inner"] == 2.0

    def test_section_times_max_over_ranks(self):
        ledger = CostLedger(2, UNIT)
        with ledger.section("work"):
            ledger.charge_time(0, 1.0)
            ledger.charge_time(1, 3.0)
        assert ledger.section_times()["work"] == 3.0


class TestCollectiveCharging:
    """Verify the Table I formulas are charged on actual communication."""

    def test_allreduce_charge_matches_formula(self):
        p, words = 4, 10

        def prog(comm):
            comm.allreduce(np.zeros(words), SUM)
            return None

        res = spmd_unit(p, prog)
        # Unit machine: cost = 2 * 1 * log2(P) + 2 * (P-1)/P * W per rank.
        expected = 2 * math.log2(p) + 2 * (p - 1) / p * words
        assert res.ledger.rank_costs(0).time == pytest.approx(expected)

    def test_send_recv_charge(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(8), dest=1)
            else:
                comm.recv(source=0)
            return None

        res = spmd_unit(2, prog)
        # alpha + beta*W = 1 + 8 on each side.
        assert res.ledger.rank_costs(0).time == pytest.approx(9.0)
        assert res.ledger.rank_costs(1).time == pytest.approx(9.0)

    def test_allgather_charge(self):
        p = 8

        def prog(comm):
            comm.allgather(np.zeros(4))
            return None

        res = spmd_unit(p, prog)
        total_words = 4 * p
        expected = math.log2(p) + (p - 1) / p * total_words
        assert res.ledger.rank_costs(3).time == pytest.approx(expected)

    def test_words_counter_tracks_array_sizes(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(16), dest=1)  # 16 words
            else:
                comm.recv(source=0)
            return None

        res = spmd_unit(2, prog)
        assert res.ledger.rank_costs(0).words_sent == 16

    def test_words_counter_recurses_into_dicts(self):
        # Regression: dict payloads used to fall through to the scalar
        # case and charge a single word, undercharging every collective
        # that moves a dict (factor exchanges, metadata broadcasts).
        def prog(comm):
            if comm.rank == 0:
                comm.send(
                    {"factor": np.zeros(16), "mode": 2, "tags": [1, 2]},
                    dest=1,
                )
            else:
                comm.recv(source=0)
            return None

        res = spmd_unit(2, prog)
        # 16 words for the array + 1 for the scalar + 2 for the list.
        assert res.ledger.rank_costs(0).words_sent == 19

    def test_words_of_nested_containers(self):
        from repro.mpi.comm import _words_of

        assert _words_of({"a": np.zeros(8), "b": {"c": np.zeros(4)}}) == 12
        assert _words_of({}) == 1
        assert _words_of({"x": 1}) == 1
        assert _words_of([np.zeros(2), (np.zeros(3), 5)]) == 6

    def test_sendrecv_uneven_legs_charge_their_own_sizes(self):
        # Regression: the receive leg used to be charged with the cost of
        # the *sent* payload, double-charging the send cost whenever the
        # two legs carried different sizes.
        def prog(comm):
            mine = np.zeros(8 if comm.rank == 0 else 24)
            other = comm.sendrecv(mine, dest=1 - comm.rank, source=1 - comm.rank)
            return other.size

        res = spmd_unit(2, prog)
        assert res.values == [24, 8]
        # Each rank: send leg alpha+beta*own + recv leg alpha+beta*theirs.
        expected = (1 + 8) + (1 + 24)
        for rank in range(2):
            row = res.ledger.rank_costs(rank)
            assert row.time == pytest.approx(expected)
            assert row.words_sent == 8 + 24
            assert row.messages == 2

    def test_sendrecv_even_legs_unchanged(self):
        def prog(comm):
            comm.sendrecv(np.zeros(4), dest=1 - comm.rank, source=1 - comm.rank)
            return None

        res = spmd_unit(2, prog)
        for rank in range(2):
            assert res.ledger.rank_costs(rank).time == pytest.approx(2 * (1 + 4))

    def test_scatter_uneven_payloads_charge_the_roots_total(self):
        # Regression: non-roots used to extrapolate their own slice
        # (my_words * P), diverging from the root's exact sum under
        # uneven payloads.
        p, sizes = 3, (1, 9, 2)

        def prog(comm):
            values = (
                [np.zeros(n) for n in sizes] if comm.rank == 0 else None
            )
            comm.scatter(values, root=0)
            return None

        res = spmd_unit(p, prog)
        total = sum(sizes)
        expected = math.log2(p) + (p - 1) / p * total  # bcast tree cost
        for rank in range(p):
            row = res.ledger.rank_costs(rank)
            assert row.time == pytest.approx(expected)
            assert row.words_sent == total

    def test_size_one_collectives_free(self):
        def prog(comm):
            comm.allreduce(np.zeros(100), SUM)
            comm.allgather(1)
            comm.bcast(2)
            return None

        res = spmd_unit(1, prog)
        assert res.ledger.modeled_time() == 0.0

    def test_summary_keys(self):
        res = spmd_unit(2, lambda comm: comm.allreduce(1.0))
        summary = res.ledger.summary()
        assert set(summary) == {
            "modeled_time",
            "total_flops",
            "total_words",
            "total_messages",
        }
