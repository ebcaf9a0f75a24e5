"""Runtime SPMD sanitizer: collective-protocol and request-lifetime checks.

The simulated runtime's failure mode for protocol bugs is a deadlock
timeout: a rank that posts ``bcast`` while its peers post ``allreduce``
waits on a receive until the transport gives up, and the report names no
line of user code.  The sanitizer (modeled on MPI correctness tools in
the MUST family) turns those hangs into immediate, precise diagnostics:

* **Collective matching** — every collective entry records a
  :class:`CollectiveCall` signature ``(op, sequence number, root,
  reduction op, dtype, shape, call site)``.  A 63-bit digest of the
  protocol-relevant fields rides every message of the collective's
  exchange round (one extra integer per message); only on a divergence
  do the full signatures travel, in one more uncharged round.  Any
  divergence raises
  :class:`~repro.mpi.errors.CollectiveMismatchError` naming every
  diverging rank and its call site.  dtype/shape are recorded for
  diagnostics but deliberately excluded from the digest except for
  ``reduce_scatter_block`` (whose contract requires one shape): uneven
  payloads are legal for gather/reduce-family collectives here.
* **Request lifetimes** — non-blocking requests are registered at post;
  a request never waited by user code fails finalize with
  :class:`~repro.mpi.errors.RequestLeakError`, a second user wait raises
  :class:`~repro.mpi.errors.RequestStateError`.

Levels: ``0`` — off, zero instrumentation on the hot path; ``1`` —
collective matching + request tracking.  Select with ``REPRO_SANITIZE``
or ``run_spmd(..., sanitize=)``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.config import default_for

if TYPE_CHECKING:  # real imports happen lazily at the raise sites:
    # importing repro.mpi.errors at module load would run the repro.mpi
    # package __init__, which imports repro.mpi.comm, which imports this
    # module — a cycle whenever repro.analysis loads first.
    from repro.mpi.errors import CollectiveMismatchError

#: Environment variable consulted when ``run_spmd`` gets no ``sanitize=``.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: Valid sanitizer levels.
SANITIZE_LEVELS = (0, 1)

#: Ops whose contract requires identical shapes/dtypes on every member,
#: so those fields join the protocol digest.  The other reduction-family
#: and gather-family collectives legally take uneven contributions.
_SHAPE_STRICT_OPS = frozenset(
    {"reduce_scatter_block", "ireduce_scatter_block"}
)

#: Frames from these path fragments are runtime internals, skipped when
#: attributing a collective or request post to user code.
_INTERNAL_FRAGMENTS = (
    os.path.join("repro", "mpi") + os.sep,
    os.path.join("repro", "analysis") + os.sep,
)


def sanitize_level(override: int | None = None) -> int:
    """Resolve the sanitizer level: explicit ``override``, else the run's
    resolved config (the ``REPRO_SANITIZE`` environment variable outside
    a run; default 0)."""
    if override is None:
        level = int(default_for("sanitize"))
    else:
        level = int(override)
    if level not in SANITIZE_LEVELS:
        raise ValueError(
            f"sanitize level must be one of {SANITIZE_LEVELS}, got {level}"
        )
    return level


def call_site() -> str:
    """``file.py:line`` of the nearest caller outside the runtime.

    Walks the stack past :mod:`repro.mpi` / :mod:`repro.analysis` frames
    so diagnostics point at the SPMD program, not at communicator
    internals.  Falls back to the outermost inspected frame when the
    whole stack is internal (direct unit tests of the runtime).
    """
    frame = sys._getframe(1)
    last = "<unknown>"
    depth = 0
    while frame is not None and depth < 30:
        filename = frame.f_code.co_filename
        last = f"{os.path.basename(filename)}:{frame.f_lineno}"
        if not any(frag in filename for frag in _INTERNAL_FRAGMENTS):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
        depth += 1
    return last


def _describe_value(value: Any) -> tuple[str, str]:
    """Best-effort (dtype, shape) strings for diagnostics."""
    dtype = getattr(value, "dtype", None)
    shape = getattr(value, "shape", None)
    if dtype is None:
        return type(value).__name__, ""
    return str(dtype), "x".join(map(str, shape)) if shape is not None else ""


@dataclass
class CollectiveCall:
    """One rank's record of one collective entry."""

    op: str
    seq: int
    group_rank: int
    world_rank: int
    root: int | None = None
    reduce_op: str | None = None
    dtype: str = ""
    shape: str = ""
    site: str = "<unknown>"

    def protocol_key(self) -> tuple:
        """The fields every member must agree on for this call."""
        key: tuple = (self.op, self.seq, self.root, self.reduce_op)
        if self.op in _SHAPE_STRICT_OPS:
            key += (self.dtype, self.shape)
        return key

    @property
    def digest(self) -> int:
        """63-bit non-zero digest of :meth:`protocol_key`.

        Non-zero so the digest 0 of an unsanitized round is never
        mistaken for a match.
        """
        raw = hashlib.blake2b(
            repr(self.protocol_key()).encode(), digest_size=8
        ).digest()
        return (int.from_bytes(raw, "little") & 0x7FFFFFFFFFFFFFFF) | 1

    def describe(self) -> str:
        extra = ""
        if self.root is not None:
            extra += f", root={self.root}"
        if self.reduce_op is not None:
            extra += f", op={self.reduce_op}"
        if self.dtype:
            extra += f", {self.dtype}"
            if self.shape:
                extra += f"[{self.shape}]"
        return (
            f"rank {self.group_rank} (world {self.world_rank}): "
            f"{self.op}#{self.seq}{extra} at {self.site}"
        )

    def wire(self) -> dict:
        """Picklable form for the point-to-point signature exchange."""
        return {
            "op": self.op,
            "seq": self.seq,
            "group_rank": self.group_rank,
            "world_rank": self.world_rank,
            "root": self.root,
            "reduce_op": self.reduce_op,
            "dtype": self.dtype,
            "shape": self.shape,
            "site": self.site,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "CollectiveCall":
        return cls(**data)


@dataclass
class RequestRecord:
    """Lifetime bookkeeping for one non-blocking request."""

    op: str
    site: str
    seq: int
    user_waits: int = 0

    def describe(self) -> str:
        return f"{self.op} (request #{self.seq}) posted at {self.site}"


@dataclass
class Sanitizer:
    """Per-rank sanitizer state, shared by every communicator of the rank.

    Created by the executor backend when the resolved sanitize level is
    positive and threaded through :class:`~repro.mpi.comm.Communicator`
    (``split`` children share their parent's instance, so request
    bookkeeping and the deadlock context span the whole rank).
    """

    level: int
    world_rank: int
    current: CollectiveCall | None = None
    _requests: list[RequestRecord] = field(default_factory=list)
    _req_seq: int = 0

    # -- collective protocol -------------------------------------------------

    def collective(
        self,
        op: str,
        seq: int,
        group_rank: int,
        root: int | None = None,
        reduce_op: Any = None,
        value: Any = None,
    ) -> CollectiveCall:
        """Record entry into a collective; returns its signature."""
        dtype, shape = _describe_value(value) if value is not None else ("", "")
        sig = CollectiveCall(
            op=op,
            seq=seq,
            group_rank=group_rank,
            world_rank=self.world_rank,
            root=root,
            reduce_op=getattr(reduce_op, "name", None),
            dtype=dtype,
            shape=shape,
            site=call_site(),
        )
        self.current = sig
        return sig

    def mismatch(
        self, mine: CollectiveCall, peers: list[CollectiveCall]
    ) -> "CollectiveMismatchError":
        """Build the diagnostic for a diverged collective."""
        from repro.mpi.errors import CollectiveMismatchError

        mine_key = mine.protocol_key()
        lines = [mine.describe()]
        for peer in sorted(peers, key=lambda s: s.group_rank):
            marker = "" if peer.protocol_key() == mine_key else " <-- diverged"
            lines.append(f"{peer.describe()}{marker}")
        return CollectiveMismatchError(
            f"collective #{mine.seq} diverged across ranks "
            f"(mismatched or reordered collective calls):\n  "
            + "\n  ".join(lines)
        )

    # -- request lifetimes ---------------------------------------------------

    def track_request(self, op: str) -> RequestRecord:
        rec = RequestRecord(op=op, site=call_site(), seq=self._req_seq)
        self._req_seq += 1
        self._requests.append(rec)
        return rec

    def user_wait(self, rec: RequestRecord) -> None:
        from repro.mpi.errors import RequestStateError

        rec.user_waits += 1
        if rec.user_waits > 1:
            raise RequestStateError(
                f"rank {self.world_rank}: double wait on {rec.describe()} "
                f"(second wait at {call_site()}); a request handle is dead "
                f"after its first wait"
            )

    def finalize(self) -> None:
        """End-of-rank check: every posted request must have been waited."""
        from repro.mpi.errors import RequestLeakError

        leaked = [r for r in self._requests if r.user_waits == 0]
        self._requests.clear()
        if leaked:
            listing = "\n  ".join(r.describe() for r in leaked)
            raise RequestLeakError(
                f"rank {self.world_rank}: {len(leaked)} non-blocking "
                f"request(s) never waited:\n  {listing}"
            )

    # -- deadlock context ----------------------------------------------------

    def annotate(self, exc: BaseException) -> None:
        """Attach the last collective context to a deadlock for post-mortems."""
        if self.current is not None:
            exc.add_note(f"sanitizer: last collective {self.current.describe()}")
