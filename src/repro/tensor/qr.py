"""Mode-n triangular factor ``Y_(n)^T = Q R`` (paper Sec. IX, IV-C, V-C).

The Gram-free factor path needs only the ``R`` of the tall-skinny
transposed unfolding: the right singular vectors of ``R`` are the left
singular vectors of ``Y_(n)``, at the full working precision the Gram
matrix squares away.  There is one kernel, the third beside
:func:`~repro.tensor.ttm.ttm` and :func:`~repro.tensor.gram.gram`, and
like them it never builds the unfolding: on the Fortran buffer viewed as
``(lead, I_n, trail)`` a row of ``Y_(n)^T`` is one ``I_n``-vector
``flat[l, :, t]``, rows counted with ``l`` fastest.  The kernel walks
those rows in chunks of :data:`~repro.tensor.dense.PANEL_BYTES`,
transposes each chunk in cache into one reused column-major
``(rows, I_n)`` scratch and folds it
into the running ``I_n x I_n`` triangle with LAPACK's
triangular-pentagonal QR (``?geqrt`` for the first chunk, ``?tpqrt`` with
``l = 0`` after): the Householder work is blocked (BLAS-3) on operands
that stay in cache, and no unfolding, transpose or stacked ``[R; chunk]``
is ever materialised.

C-ordered tensors are the same buffer with the modes reversed and ride
the same view (their rows arrive in the reversed tensor's order: the same
``R`` up to rounding); only a genuinely strided input is copied, once.
Chunk boundaries are row counts of ``Y_(n)^T`` — a function of ``I_n`` and
the dtype alone — and the rows of a chunk are always in unfolding order,
so a tensor, a strided copy of it and its transposed unfolding handed over
as a matrix all return the same bits.

Why the chunk and the panel width are constants and not knobs: the chunk
only has to amortise a LAPACK call and stay in cache beside the triangle
(512 KB, the Gram panel and the first-mode TTM panel), and ``?geqrt`` /
``?tpqrt`` recurse inside a panel, so a narrow one costs nothing;
measured at the views the drivers produce, chunks of 256 KB to 1 MB and
widths of 2 to 8 are one plateau and everything outside it loses on the
large shapes (the README's "Local kernels" tables).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

from repro.tensor.dense import (
    PANEL_BYTES,
    Tensor,
    as_ndarray,
    fortran_view,
    match_dtype,
)
from repro.tensor.eig import EigResult, _fix_signs
from repro.util.validation import check_axis, prod

#: Householder panel width handed to ``?geqrt`` / ``?tpqrt``.
PANEL_WIDTH = 8


@functools.cache
def lapack_qr() -> dict[np.dtype, tuple]:
    """``{dtype: (?geqrt, ?tpqrt)}`` for float32 and float64, resolved on
    first use.

    SciPy is the only source of the triangular-pentagonal pair and only
    this path needs it, so it is loaded here and not when
    :mod:`repro.tensor` is: the Gram path never loads it.  Only SciPy's
    compiled LAPACK wrapper ``scipy.linalg._flapack`` is loaded — the
    routines ``scipy.linalg.get_lapack_funcs`` hands out — and not the
    ``scipy.linalg`` package, whose import costs hundreds of milliseconds
    and tens of MB for nothing this path uses.  A launcher that will run
    ``qr_r`` on ranks calls this in the parent first, so a missing wrapper
    fails there and forked workers inherit the pair instead of loading it
    inside a collective.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("the QR path needs SciPy's LAPACK wrapper; "
                          "SciPy is not installed")
    linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"SciPy's LAPACK wrapper _flapack not found in "
                          f"{linalg}")
    loader = importlib.machinery.ExtensionFileLoader(
        "scipy.linalg._flapack", path
    )
    flapack = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader)
    )
    loader.exec_module(flapack)
    return {
        np.dtype(dt): (getattr(flapack, f"{prefix}geqrt"),
                       getattr(flapack, f"{prefix}tpqrt"))
        for dt, prefix in ((np.float32, "s"), (np.float64, "d"))
    }


def chunk_rows(n: int, itemsize: int) -> int:
    """Rows of ``Y_(n)^T`` per chunk: :data:`~repro.tensor.dense.PANEL_BYTES`
    worth, and never fewer than ``n`` so the first chunk already yields a
    full triangle."""
    return max(n, PANEL_BYTES // (max(n, 1) * itemsize))


def copy_unfolding_rows(
    dst: np.ndarray, flat: np.ndarray, start: int, stop: int
) -> None:
    """``dst[k, :] = flat[l, :, t]`` for rows ``k = start..stop`` of the
    transposed unfolding of a ``(lead, I_n, trail)`` view (``l`` fastest).

    At most three same-layout block copies: a partial sub-block at either
    end and the whole sub-blocks between them, moved in one assignment in
    runs of ``lead`` contiguous words.  ``dst`` is ``(stop - start, I_n)``
    with unit stride down its columns.
    """
    lead, n, _ = flat.shape
    at = 0
    while start < stop:
        t, l = divmod(start, lead)
        if l or stop - start < lead:
            count = min(lead - l, stop - start)
            dst[at : at + count] = flat[l : l + count, :, t]
        else:
            blocks = (stop - start) // lead
            count = blocks * lead
            np.reshape(dst[at : at + count], (lead, blocks, n), order="F")[
                ...
            ] = flat[:, :, t : t + blocks].transpose(0, 2, 1)
        at += count
        start += count


def qr_r(x: "Tensor | np.ndarray", mode: int) -> np.ndarray:
    """Upper-triangular ``R`` of ``unfold(x, mode).T``, in its true shape.

    ``min(m, I_n) x I_n`` for an unfolding with ``m`` columns (so an empty
    column share gives ``0 x I_n``); ``R^T R`` equals ``gram(x, mode)`` and
    ``|R|`` equals ``np.linalg.qr(unfold(x, mode).T, mode="r")`` up to row
    signs.  ``x`` is only read — it may be a read-only shared-memory view.
    """
    arr = as_ndarray(x)
    mode = check_axis(mode, arr.ndim)
    src, mode, _ = fortran_view(arr, mode)
    n = src.shape[mode]
    lead = prod(src.shape[:mode])
    trail = prod(src.shape[mode + 1 :])
    flat = np.reshape(src, (lead, n, trail), order="F")
    m = lead * trail
    dtype = match_dtype(flat.dtype)
    if m == 0 or n == 0:
        return np.zeros((0, n), dtype=dtype)
    geqrt, tpqrt = lapack_qr()[dtype]
    step = chunk_rows(n, dtype.itemsize)
    scratch = np.empty(min(step, m) * n, dtype=dtype)
    r = None
    for start in range(0, m, step):
        rows = min(step, m - start)
        chunk = np.reshape(scratch[: rows * n], (rows, n), order="F")
        copy_unfolding_rows(chunk, flat, start, start + rows)
        if r is None:
            # rows >= n unless the whole unfolding is shorter than that.
            out, _, info = geqrt(min(PANEL_WIDTH, rows, n), chunk,
                                 overwrite_a=1)
            r = np.array(out[:n], order="F")
        else:
            r, _, _, info = tpqrt(0, min(PANEL_WIDTH, n), r, chunk,
                                  overwrite_a=1, overwrite_b=1)
        if info != 0:  # pragma: no cover - argument errors only
            raise np.linalg.LinAlgError(f"LAPACK QR failed (info={info})")
    # Below the diagonal geqrt leaves Householder vectors and tpqrt never
    # looks: the triangle is what is above.
    return np.triu(r)


def full_triangle(r: np.ndarray) -> np.ndarray:
    """A true-shape ``R`` padded with zero rows to ``n x n``, its diagonal
    made non-negative — the deterministic form every consumer sees."""
    n = r.shape[1]
    if r.shape[0] < n:
        r = np.vstack([r, np.zeros((n - r.shape[0], n), dtype=r.dtype)])
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return signs[:, None] * r


def spectrum_from_r(r: np.ndarray) -> EigResult:
    """Squared singular values and left singular vectors of ``Y_(n)`` from
    the full triangle of ``Y_(n)^T = Q R``: the right singular vectors of
    ``R``.  Like the eigensolve on the Gram path the small SVD always runs
    in float64 (a no-op cast on the float64 path) — only the
    bandwidth-carrying QR runs narrow.  Sign convention as on the Gram path.
    """
    _, sing, vt = np.linalg.svd(np.asarray(r, dtype=np.float64))
    return EigResult(values=sing**2, vectors=_fix_signs(vt.T))
