"""Problem definitions for the paper's performance experiments (Sec. VIII).

Each helper returns ``(shape, ranks, grid-or-grids, extras)`` describing one
experiment, at either paper scale (for the analytic model) or a reduced
scale (for actual simulated execution).  Keeping the definitions here — and
importing them from both tests and benchmarks — guarantees the benchmarks
run the experiments the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ScalingProblem:
    """One performance-experiment configuration."""

    shape: tuple[int, ...]
    ranks: tuple[int, ...]
    n_procs: int
    grids: tuple[tuple[int, ...], ...]
    note: str = ""


def fig8a_problem(scale: int = 1) -> ScalingProblem:
    """Fig. 8a: 384^4 tensor -> 96^4 core on P = 384, eleven grids.

    ``scale`` divides tensor dimensions (grids are unchanged — they are the
    experiment's subject); ``scale=1`` is paper scale, suitable for the
    analytic model only.
    """
    check_positive_int(scale, "scale")
    if 384 % scale != 0 or 96 % scale != 0:
        raise ValueError(f"scale {scale} must divide 384 and 96")
    dim, rank = 384 // scale, 96 // scale
    grids = (
        (1, 1, 1, 384),
        (1, 1, 16, 24),
        (1, 1, 2, 192),
        (1, 1, 4, 96),
        (1, 1, 8, 48),
        (1, 2, 12, 16),
        (1, 4, 8, 12),
        (2, 2, 8, 12),
        (2, 4, 6, 8),
        (4, 4, 4, 6),
        (6, 4, 4, 4),
    )
    return ScalingProblem(
        shape=(dim,) * 4,
        ranks=(rank,) * 4,
        n_procs=384,
        grids=grids,
        note="Fig. 8a processor-grid sweep (paper lists these 11 grids)",
    )


def fig8b_problem(scale: int = 1) -> ScalingProblem:
    """Fig. 8b: 25 x 250 x 250 x 250 -> 10 x 10 x 100 x 100 on a 2^4 grid.

    The paper runs 16 of 24 cores of one node as a uniform 2x2x2x2 grid and
    sweeps the ST-HOSVD mode order.
    """
    check_positive_int(scale, "scale")
    if 250 % scale != 0 or 100 % scale != 0:
        raise ValueError(f"scale {scale} must divide 250 and 100")
    # Paper problem: 25 x 250 x 250 x 250 -> 10 x 10 x 100 x 100 (mode 1
    # has the largest compression ratio, 250 -> 10).
    shape = (25 if scale == 1 else max(4, 25 // scale),) + (250 // scale,) * 3
    ranks = (
        10 if scale == 1 else max(2, 10 // scale),
        10 if scale == 1 else max(2, 10 // scale),
    ) + (100 // scale,) * 2
    return ScalingProblem(
        shape=shape,
        ranks=ranks,
        n_procs=16,
        grids=((2, 2, 2, 2),),
        note="Fig. 8b mode-ordering sweep",
    )
