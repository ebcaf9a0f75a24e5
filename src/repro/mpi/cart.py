"""Cartesian processor grids (paper Sec. IV).

An order-N tensor is distributed over a logical ``P1 x P2 x ... x PN``
processor grid.  :class:`CartGrid` wraps a flat communicator with the grid
geometry and provides the two sub-communicators the algorithms need:

* the *mode-n processor column* — the ``Pn`` ranks that share all grid
  coordinates except coordinate ``n`` (paper: ``myProcCol``); and
* the *mode-n processor row* (or slice) — the ``P / Pn`` ranks that share
  coordinate ``n`` (paper: ``myProcRow``).

Grid coordinates map to flat ranks in C (row-major) order: coordinate N-1
varies fastest.  As with ``MPI_Cart_sub``, a sub-communicator's members and
rank order follow from the grid alone, so each rank builds its own without
a message (:meth:`~repro.mpi.comm.Communicator.group`): one spanning the
whole grid in order is the grid's communicator itself, one of a single rank
never communicates.  Construction is out-of-band setup (zero model cost),
matching the paper's assumption of a fixed grid.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import Communicator
from repro.mpi.errors import CommunicatorError
from repro.util.validation import check_shape_like, prod


class CartGrid:
    """An N-way Cartesian view of a communicator."""

    def __init__(self, comm: Communicator, dims: tuple[int, ...] | list[int]):
        dims = check_shape_like(dims, "dims")
        if prod(dims) != comm.size:
            raise CommunicatorError(
                f"grid {dims} has {prod(dims)} slots but communicator has "
                f"{comm.size} ranks"
            )
        self._comm = comm
        self._dims = dims
        self._coords = tuple(
            int(c) for c in np.unravel_index(comm.rank, dims, order="C")
        )
        # Flat rank at every grid position: a sub-communicator's members
        # and their order follow from it, so building one sends nothing.
        self._ranks = np.arange(comm.size).reshape(dims)
        self._col_cache: dict[int, Communicator] = {}
        self._row_cache: dict[int, Communicator] = {}

    # -- geometry ------------------------------------------------------------

    @property
    def comm(self) -> Communicator:
        return self._comm

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def ndim(self) -> int:
        return len(self._dims)

    @property
    def coords(self) -> tuple[int, ...]:
        """This rank's grid coordinates ``(p1, ..., pN)``."""
        return self._coords

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of a flat rank."""
        if not 0 <= rank < self._comm.size:
            raise CommunicatorError(f"rank {rank} outside communicator")
        return tuple(int(c) for c in np.unravel_index(rank, self._dims, order="C"))

    # -- sub-communicators -----------------------------------------------------

    def mode_column(self, mode: int) -> Communicator:
        """Communicator over the ``P_mode`` ranks sharing all coords but ``mode``.

        The new communicator's rank order follows grid coordinate ``mode``,
        i.e. local rank equals ``coords[mode]``.
        """
        self._check_mode(mode)
        if mode not in self._col_cache:
            at: list[int | slice] = list(self._coords)
            at[mode] = slice(None)
            self._col_cache[mode] = self._comm.group(
                self._ranks[tuple(at)].tolist()
            )
        return self._col_cache[mode]

    def mode_row(self, mode: int) -> Communicator:
        """Communicator over the ``P / P_mode`` ranks sharing coordinate ``mode``.

        Rank order follows the C-order linearization of the remaining
        coordinates, so all mode-rows enumerate peers consistently.
        """
        self._check_mode(mode)
        if mode not in self._row_cache:
            self._row_cache[mode] = self._comm.group(
                np.take(self._ranks, self._coords[mode], axis=mode).ravel().tolist()
            )
        return self._row_cache[mode]

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.ndim:
            raise CommunicatorError(f"mode {mode} outside grid order {self.ndim}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CartGrid(dims={self._dims}, coords={self._coords})"
