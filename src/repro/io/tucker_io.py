"""Save/load Tucker decompositions as ``.npz`` containers.

Layout of the container:

* ``core`` — the core tensor ``G``;
* ``factor_0`` ... ``factor_{N-1}`` — the factor matrices ``U^(n)``;
* ``meta`` — a JSON string with the library version, shapes, and any
  user-supplied metadata (dataset name, epsilon used, scaling info...).

Compression on disk is the in-memory word-count ratio (Sec. VII-B) modulo
npz container overhead, which :func:`stored_bytes` lets callers report
precisely.  Members are stored, not deflated: a core and orthonormal
factors are full-entropy float64 words, on which zlib buys about 3% of
the bytes for 35x the save time.  :func:`load_tucker` reads either.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any

import numpy as np

from repro.core.tucker import TuckerTensor

#: Container format version, bumped on layout changes.
FORMAT_VERSION = 1


def _atomic_write_npz(target: str, arrays: dict[str, np.ndarray]) -> None:
    # A file object sidesteps np.savez's auto-".npz" suffix; os.replace
    # makes the publication atomic (a killed writer leaves only a .tmp,
    # a failed one removes it).
    tmp = target + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_tucker(
    path: str | os.PathLike,
    t: TuckerTensor,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a Tucker decomposition to ``path`` (.npz appended if missing).

    ``metadata`` must be JSON-serializable; it is stored verbatim and
    returned by :func:`load_tucker`.  The container is published
    atomically (``tmp + os.replace``): a writer that fails or is killed
    leaves whatever ``path`` held before, never a truncated file.
    """
    if not isinstance(t, TuckerTensor):
        raise TypeError(f"expected a TuckerTensor, got {type(t).__name__}")
    meta = {
        "format_version": FORMAT_VERSION,
        "shape": list(t.shape),
        "ranks": list(t.ranks),
        "user": metadata or {},
    }
    try:
        meta_json = json.dumps(meta)
    except TypeError as exc:
        raise TypeError("metadata must be JSON-serializable") from exc
    arrays = {"core": t.core, "meta": np.frombuffer(meta_json.encode(), dtype=np.uint8)}
    for n, f in enumerate(t.factors):
        arrays[f"factor_{n}"] = f
    target = os.fspath(path)
    if not target.endswith(".npz"):
        target += ".npz"
    _atomic_write_npz(target, arrays)


def load_tucker(path: str | os.PathLike) -> tuple[TuckerTensor, dict[str, Any]]:
    """Read a decomposition written by :func:`save_tucker`.

    Returns ``(tucker, user_metadata)``.
    """
    with np.load(os.fspath(path)) as data:
        if "meta" not in data or "core" not in data:
            raise ValueError(f"{path} is not a Tucker container")
        meta = json.loads(bytes(data["meta"]).decode())
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported container version {version} (expected "
                f"{FORMAT_VERSION})"
            )
        core = data["core"]
        n_modes = core.ndim
        factors = []
        for n in range(n_modes):
            key = f"factor_{n}"
            if key not in data:
                raise ValueError(f"container missing {key}")
            factors.append(data[key])
    t = TuckerTensor(core=core, factors=tuple(factors))
    if list(t.shape) != meta["shape"] or list(t.ranks) != meta["ranks"]:
        raise ValueError(
            f"container metadata inconsistent: stored shape/ranks "
            f"{meta['shape']}/{meta['ranks']} vs arrays {t.shape}/{t.ranks}"
        )
    return t, meta["user"]


def stored_bytes(path: str | os.PathLike) -> int:
    """On-disk size of a saved container, for compression reports."""
    target = os.fspath(path)
    if not os.path.exists(target) and os.path.exists(target + ".npz"):
        target = target + ".npz"
    return os.path.getsize(target)
