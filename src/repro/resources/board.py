"""Shared-memory resource board: live shm bytes per rank, lock-free.

The budget is a *world-wide* property but allocations happen in every
rank process, so the accounting must be visible across the world without
a lock on the allocation path.  Same trick as the fault status board:
a tiny POSIX shm segment of int64 words where every word has exactly one
writer —

* per-slot word 0: live bytes charged by that slot's process (signed:
  a slot goes negative when a process unlinks a segment another process
  created, e.g. a receiver retiring a sender's payload — the *sum* over
  slots is the world's live total and stays correct under ownership
  transfer)
* per-slot word 1: count of degradation events recorded by that process

Slots 0..n_ranks-1 belong to the ranks; slot n_ranks belongs to the
parent (its staging arena).  The segment uses the transport's ``rps_``
prefix so the crash audit reclaims boards whose creator died.
Import-pure at module level apart from numpy.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory

import numpy as np

# Keep in sync with process_transport._SHM_PREFIX (not imported to stay
# import-pure): boards must be swept by the same crash audit.
_PREFIX = "rps_"

_SLOT_WORDS = 2


class ResourceBoard:
    """Per-world live-byte accounting shared by the parent and all ranks."""

    def __init__(
        self, shm: shared_memory.SharedMemory, n_slots: int, owner: bool
    ):
        self._shm = shm
        self.n_slots = n_slots
        self._owner = owner
        self._words: np.ndarray | None = np.frombuffer(
            shm.buf, dtype=np.int64, count=n_slots * _SLOT_WORDS
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(cls, n_slots: int) -> "ResourceBoard":
        nbytes = n_slots * _SLOT_WORDS * 8
        for _ in range(3):
            name = f"{_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes
                )
                break
            except FileExistsError:  # pragma: no cover - token collision
                continue
        else:  # pragma: no cover
            raise RuntimeError("could not allocate a resource board segment")
        board = cls(shm, n_slots, owner=True)
        assert board._words is not None
        board._words[:] = 0
        return board

    @classmethod
    def attach(cls, name: str, n_slots: int) -> "ResourceBoard":
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, n_slots, owner=False)

    # -- accounting (single writer per slot) ---------------------------

    def add(self, slot: int, delta: int) -> None:
        assert self._words is not None
        base = slot * _SLOT_WORDS
        self._words[base] += delta

    def note_degradation(self, slot: int) -> None:
        assert self._words is not None
        self._words[slot * _SLOT_WORDS + 1] += 1

    def slot_live(self, slot: int) -> int:
        assert self._words is not None
        return int(self._words[slot * _SLOT_WORDS])

    def total(self) -> int:
        """World-wide live shm bytes (sum over slots; >= 0 in aggregate)."""
        assert self._words is not None
        return max(0, int(self._words[0::_SLOT_WORDS].sum()))

    def ranks_live(self) -> int:
        """Live bytes attributed to the rank slots (parent slot excluded
        — the parent's bytes are already counted by its own governor, so
        admission sources must not report them twice)."""
        assert self._words is not None
        stop = (self.n_slots - 1) * _SLOT_WORDS
        return max(0, int(self._words[0:stop:_SLOT_WORDS].sum()))

    def degradations(self) -> int:
        assert self._words is not None
        return int(self._words[1::_SLOT_WORDS].sum())

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._words = None  # release the buffer view before closing
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already audited away
            pass
