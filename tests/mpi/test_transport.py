"""Unit tests for the in-process message transport."""

import threading

import pytest

from repro.mpi.errors import DeadlockError
from repro.mpi.process_transport import ProcessTransport
from repro.mpi.transport import ThreadTransport


class TestBasicDelivery:
    def test_put_then_get(self):
        t = ThreadTransport()
        t.put("k", 42)
        assert t.get("k") == 42

    def test_fifo_per_mailbox(self):
        t = ThreadTransport()
        for i in range(5):
            t.put("k", i)
        assert [t.get("k") for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_distinct_keys_isolated(self):
        t = ThreadTransport()
        t.put("a", 1)
        t.put("b", 2)
        assert t.get("b") == 2
        assert t.get("a") == 1

    def test_pending_counts_undelivered(self):
        t = ThreadTransport()
        assert t.pending() == 0
        t.put("x", 1)
        t.put("y", 2)
        assert t.pending() == 2
        t.get("x")
        assert t.pending() == 1

    def test_mailbox_cleanup_after_drain(self):
        t = ThreadTransport()
        t.put("k", 1)
        t.get("k")
        assert t.pending() == 0


class TestBlockingBehaviour:
    def test_get_blocks_until_put(self):
        t = ThreadTransport(timeout=5.0)
        received = []

        def consumer():
            received.append(t.get("k"))

        thread = threading.Thread(target=consumer)
        thread.start()
        t.put("k", "hello")
        thread.join(timeout=5)
        assert received == ["hello"]

    def test_timeout_raises_deadlock(self):
        t = ThreadTransport(timeout=0.05)
        with pytest.raises(DeadlockError, match="timed out"):
            t.get("never")

    def test_abort_wakes_waiter(self):
        t = ThreadTransport(timeout=30.0)
        errors = []

        def consumer():
            try:
                t.get("k")
            except DeadlockError as exc:
                errors.append(exc)

        thread = threading.Thread(target=consumer)
        thread.start()
        t.abort(RuntimeError("boom"))
        thread.join(timeout=5)
        assert len(errors) == 1
        assert "boom" in str(errors[0])

    def test_aborted_transport_rejects_future_gets(self):
        t = ThreadTransport()
        t.abort(RuntimeError("dead"))
        with pytest.raises(DeadlockError):
            t.get("anything")


class TestValidation:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            ThreadTransport(timeout=0)

    def test_rejects_nan_timeout(self, spmd_backend):
        # NaN fails every comparison: a ``<= 0`` check would let it by and
        # a receive with no sender would never time out.
        make = {
            "thread": lambda: ThreadTransport(timeout=float("nan")),
            "process": lambda: ProcessTransport(
                0, [], None, timeout=float("nan")
            ),
        }[spmd_backend]
        with pytest.raises(ValueError, match="timeout must be positive"):
            make()
