"""Streaming Tucker compression for time-appended simulation output.

:class:`StreamingTucker` is
:class:`~repro.distributed.streaming.DistStreamingTucker` — the recipe and
its error-budget argument are documented there — on a one-rank grid: every
slab is this process's whole slab, and peak memory is the running core
plus one slab.
"""

from __future__ import annotations

from repro.distributed.grid import self_grid
from repro.distributed.streaming import DistStreamingTucker
from repro.util.validation import check_shape_like


class StreamingTucker(DistStreamingTucker):
    """Incrementally compress a tensor arriving as slabs of the last mode.

    Parameters
    ----------
    spatial_shape:
        The fixed shape of all modes except the streaming (last) mode.
    tol:
        Relative error tolerance for the *final* decomposition, measured
        against the full streamed tensor.
    """

    def __init__(self, spatial_shape: tuple[int, ...] | list[int], tol: float):
        spatial_shape = check_shape_like(spatial_shape, "spatial_shape")
        super().__init__(
            self_grid(len(spatial_shape) + 1), spatial_shape, tol
        )
