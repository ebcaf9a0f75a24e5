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

The module also holds the per-mode checkpoint store used by
``dist_sthosvd(..., checkpoint=)`` for crash recovery: each rank writes
its post-mode state (shrunk core block + factor block rows so far) to a
step file, and rank 0 commits a ``meta.json`` naming the last step whose
files are *all* on disk.  Every write is ``tmp + os.replace`` so a rank
killed mid-write can never corrupt a committed checkpoint.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Any

import numpy as np

from repro.core.tucker import TuckerTensor

#: Container format version, bumped on layout changes.
FORMAT_VERSION = 1

#: Checkpoint store format version, bumped on layout changes.
CHECKPOINT_VERSION = 2


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


# ---------------------------------------------------------------------------
# ST-HOSVD checkpoint store
# ---------------------------------------------------------------------------


def checkpoint_digest(params: dict[str, Any]) -> str:
    """Stable digest of the run parameters a checkpoint belongs to.

    Resume refuses a checkpoint whose digest differs — a state written
    for a different shape, grid, tolerance, rank request, mode order, or
    method would silently corrupt the result otherwise.
    """
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _step_file(path: str, step: int, rank: int) -> str:
    return os.path.join(path, f"m{step}_r{rank}.npz")


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


def save_checkpoint_state(
    path: str | os.PathLike,
    step: int,
    rank: int,
    local: np.ndarray,
    global_shape: tuple[int, ...],
    factors: dict[int, np.ndarray],
    eigenvalues: dict[int, np.ndarray],
) -> None:
    """Write one rank's post-``step`` state file (atomic).

    ``factors``/``eigenvalues`` map processed mode -> this rank's factor
    block row / the mode's eigenvalue spectrum; each step file carries
    the *full* state so far, so only the newest step needs to survive.
    """
    root = os.fspath(path)
    os.makedirs(root, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        "local": np.ascontiguousarray(local),
        "global_shape": np.asarray(global_shape, dtype=np.int64),
    }
    for mode, f in factors.items():
        arrays[f"factor_{mode}"] = f
    for mode, e in eigenvalues.items():
        arrays[f"eig_{mode}"] = e
    _atomic_write_npz(_step_file(root, step, rank), arrays)


def load_checkpoint_state(
    path: str | os.PathLike, step: int, rank: int
) -> dict[str, Any]:
    """Read one rank's state file for ``step``.

    Returns ``{"local", "global_shape", "factors", "eigenvalues"}`` with
    the mode-indexed dicts reassembled.  Raises ``FileNotFoundError`` if
    the file is missing (a committed meta without its step files means
    the store was tampered with or partially deleted).
    """
    target = _step_file(os.fspath(path), step, rank)
    factors: dict[int, np.ndarray] = {}
    eigenvalues: dict[int, np.ndarray] = {}
    with np.load(target) as data:
        local = np.asfortranarray(data["local"])
        global_shape = tuple(int(s) for s in data["global_shape"])
        for key in data.files:
            if key.startswith("factor_"):
                factors[int(key[len("factor_"):])] = data[key]
            elif key.startswith("eig_"):
                eigenvalues[int(key[len("eig_"):])] = data[key]
    return {
        "local": local,
        "global_shape": global_shape,
        "factors": factors,
        "eigenvalues": eigenvalues,
    }


def commit_checkpoint_meta(
    path: str | os.PathLike,
    digest: str,
    completed: int,
    n_ranks: int,
    order: tuple[int, ...],
    x_norm_sq: float,
) -> None:
    """Atomically publish ``meta.json``: all state through step
    ``completed - 1`` is on disk for every rank, with the ``||X||^2``
    the run carries (JSON keeps every bit of a float)."""
    root = os.fspath(path)
    meta = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "digest": digest,
        "completed": completed,
        "n_ranks": n_ranks,
        "order": list(order),
        "x_norm_sq": x_norm_sq,
    }
    tmp = os.path.join(root, "meta.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(meta, fh)
    os.replace(tmp, os.path.join(root, "meta.json"))


def read_checkpoint_meta(path: str | os.PathLike) -> dict[str, Any] | None:
    """The committed ``meta.json``, or None when no checkpoint exists."""
    target = os.path.join(os.fspath(path), "meta.json")
    try:
        with open(target) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return None
    version = meta.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} (expected "
            f"{CHECKPOINT_VERSION})"
        )
    return meta


def clear_checkpoint_step(path: str | os.PathLike, step: int) -> None:
    """Best-effort removal of a superseded (or finished) step's files."""
    root = os.fspath(path)
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return
    prefix = f"m{step}_r"
    for name in names:
        if name.startswith(prefix) and name.endswith(".npz"):
            try:
                os.remove(os.path.join(root, name))
            except FileNotFoundError:  # pragma: no cover - concurrent clear
                pass


def clear_checkpoint(path: str | os.PathLike) -> None:
    """Remove a checkpoint store entirely (meta + every step file)."""
    root = os.fspath(path)
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return
    for name in names:
        if name == "meta.json" or (
            name.startswith("m") and name.endswith((".npz", ".tmp"))
        ):
            try:
                os.remove(os.path.join(root, name))
            except FileNotFoundError:  # pragma: no cover - concurrent clear
                pass


def stored_bytes(path: str | os.PathLike) -> int:
    """On-disk size of a saved container, for compression reports."""
    target = os.fspath(path)
    if not os.path.exists(target) and os.path.exists(target + ".npz"):
        target = target + ".npz"
    return os.path.getsize(target)
