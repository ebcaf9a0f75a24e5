"""Floating-point operation counts for the kernels used by the library.

These counts follow the conventions of the paper (Sec. V): a real fused
multiply-add counts as 2 flops, a symmetric rank-k update counts the full
(non-symmetric) cost unless stated otherwise, and the symmetric eigensolve
is charged at the paper's ``10/3 * n^3`` figure (reduction to tridiagonal
plus eigenvector accumulation).

The counts are exact *model* numbers: the simulator's ledger and the analytic
performance model must agree on them, which is enforced by tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.util.validation import check_axis, prod


def syrk_flops(n: int, k: int, exploit_symmetry: bool = False) -> int:
    """Flops for a rank-k update producing an ``n x n`` Gram matrix.

    The paper stores both triangles explicitly and does not exploit symmetry
    in the distributed Gram (Sec. V-C), so the default counts the full
    ``2 n^2 k``.  With ``exploit_symmetry=True`` (the ``Pn == 1`` fast path)
    only ``n (n + 1) k`` flops are charged.
    """
    if exploit_symmetry:
        return n * (n + 1) * k
    return 2 * n * n * k


def eig_flops(n: int) -> int:
    """Flops for a full symmetric eigendecomposition of an ``n x n`` matrix.

    The paper charges ``(10/3) n^3`` (Alg. 5 analysis).  Rounded to an int.
    """
    return (10 * n * n * n) // 3


def ttm_flops(shape: Sequence[int], mode: int, new_dim: int) -> int:
    """Flops for a mode-``mode`` tensor-times-matrix product.

    ``Y = X x_n V`` with ``X`` of the given shape and ``V`` of size
    ``new_dim x shape[mode]`` costs ``2 * new_dim * prod(shape)`` flops
    (a GEMM with m=new_dim, k=shape[mode], n=prod(shape)/shape[mode]).
    """
    mode = check_axis(mode, len(shape))
    return 2 * new_dim * prod(shape)


def gram_flops(shape: Sequence[int], mode: int) -> int:
    """Flops for forming the mode-n Gram matrix ``S = Y_(n) Y_(n)^T``.

    Full (non-symmetric) cost is ``2 * shape[mode] * prod(shape)``.
    """
    mode = check_axis(mode, len(shape))
    return syrk_flops(shape[mode], prod(shape) // shape[mode])
