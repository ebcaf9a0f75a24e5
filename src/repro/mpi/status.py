"""Shared-memory rank status board: liveness words + death notices.

A tiny POSIX shm segment, one per process-backend world, read and
written lock-free (each field has exactly one writer):

* header word 0: dead rank (-1 while everyone lives) — parent-written
* header word 1: dead rank's exitcode — parent-written
* per-rank slot of 6 words — written only by that rank:
  ``[state, pid, packed op name (3 words), op sequence]``

When the parent's exit monitor sees a child die it records the death
here *before* setting the abort event, so survivors woken by the abort
can raise :class:`~repro.mpi.errors.RankDeadError` naming the dead
rank, its signal, and its last collective context — instead of a
generic :class:`~repro.mpi.errors.DeadlockError`.

The segment comes from the transport's one creation site
(``process_transport.Segment.create``), so it is named with the
creator's pid under the same ``rps_`` prefix as transport segments and
the crash audit ``reap_stale_segments`` reclaims boards whose creator
died.
"""

from __future__ import annotations

import functools
import signal

import numpy as np

from repro.mpi.errors import RankDeadError
from repro.mpi.process_transport import Segment

_HEADER_WORDS = 2
_SLOT_WORDS = 6
_OP_WORDS = 3

STATE_IDLE = 0
STATE_RUNNING = 1
STATE_DONE = 2


def describe_exitcode(exitcode: int | None) -> str:
    """Human description of a child exitcode (negative = -signum)."""
    if exitcode is None:
        return "unknown exit"
    if exitcode < 0:
        try:
            return f"signal {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"signal {-exitcode}"
    return f"exit code {exitcode}"


@functools.lru_cache(maxsize=64)
def _pack_op(op: str) -> tuple[int, int, int]:
    # 7 bytes per word keeps each value positive in an int64; three words
    # cover every collective name ("reduce_scatter_block" is 20 bytes).
    raw = op.encode("utf-8", "replace")[: 7 * _OP_WORDS]
    return tuple(
        int.from_bytes(raw[7 * i : 7 * i + 7], "little") for i in range(_OP_WORDS)
    )


def _unpack_op(*words: int) -> str:
    if words[0] <= 0:
        return ""
    raw = b"".join(int(w).to_bytes(7, "little") for w in words)
    return raw.rstrip(b"\x00").decode("utf-8", "replace")


class StatusBoard:
    """Liveness/death board shared between the parent and all ranks."""

    def __init__(self, shm: Segment, n_ranks: int, owner: bool):
        self._shm = shm
        self.n_ranks = n_ranks
        self._owner = owner
        nwords = _HEADER_WORDS + n_ranks * _SLOT_WORDS
        self._words = np.frombuffer(shm.buf, dtype=np.int64, count=nwords)

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(cls, n_ranks: int) -> "StatusBoard":
        shm = Segment.create((_HEADER_WORDS + n_ranks * _SLOT_WORDS) * 8)
        board = cls(shm, n_ranks, owner=True)
        board.reset()
        return board

    @classmethod
    def attach(cls, name: str, n_ranks: int) -> "StatusBoard":
        return cls(Segment(name), n_ranks, owner=False)

    def reset(self) -> None:
        """Parent-side: clear all state before (re)using the board."""
        self._words[:] = 0
        self._words[0] = -1

    # -- child-side liveness words ------------------------------------

    def _slot(self, rank: int) -> int:
        return _HEADER_WORDS + rank * _SLOT_WORDS

    def mark_running(self, rank: int, pid: int) -> None:
        base = self._slot(rank)
        self._words[base + 1] = pid
        self._words[base] = STATE_RUNNING

    def mark_done(self, rank: int) -> None:
        self._words[self._slot(rank)] = STATE_DONE

    def note(self, rank: int, op: str, seq: int) -> None:
        """Record the collective a rank is entering (its last-op context)."""
        base = self._slot(rank)
        lo, mid, hi = _pack_op(op)
        self._words[base + 2] = lo
        self._words[base + 3] = mid
        self._words[base + 4] = hi
        self._words[base + 5] = seq

    # -- parent-side death notice -------------------------------------

    def mark_dead(self, rank: int, exitcode: int | None) -> None:
        """Record a rank death; first death wins.  Call BEFORE abort."""
        if int(self._words[0]) >= 0:
            return
        self._words[1] = exitcode if exitcode is not None else 0
        self._words[0] = rank

    def dead(self) -> tuple[int, int] | None:
        rank = int(self._words[0])
        if rank < 0:
            return None
        return rank, int(self._words[1])

    def last_context(self, rank: int) -> str | None:
        """The last collective the rank recorded, e.g. ``allreduce#3``."""
        base = self._slot(rank)
        op = _unpack_op(*(int(w) for w in self._words[base + 2 : base + 5]))
        if not op:
            return None
        return f"{op}#{int(self._words[base + 5])}"

    def dead_error(self, doing: str | None = None):
        """A ``RankDeadError`` for the recorded death, or None."""
        death = self.dead()
        if death is None:
            return None
        rank, exitcode = death
        msg = f"rank {rank} died ({describe_exitcode(exitcode)})"
        context = self.last_context(rank)
        if context:
            msg += f" after entering {context}"
        if doing:
            msg += f"; this rank was {doing}"
        return RankDeadError(msg, dead_rank=rank, exitcode=exitcode)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        self._words = None  # release the buffer view before closing
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already audited away
            pass
