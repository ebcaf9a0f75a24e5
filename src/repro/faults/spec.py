"""Deterministic fault-injection spec grammar.

A fault spec is a list of clauses separated by ``,`` or ``;``; each
clause is a list of ``key=value`` fields separated by ``:``::

    rank=2:site=allreduce:nth=3:kind=crash
    rank=*:site=send:kind=delay:delay=0.2,rank=1:site=recv:kind=exception

Fields (all optional except ``kind``):

``rank``
    Rank the clause applies to, or ``*`` for every rank (default ``*``).
``site``
    Injection site name, or ``*`` for any site (default ``*``).  Sites
    are collective op names (``allreduce``, ``bcast``, ...), ``send`` /
    ``recv`` (process-transport messages: point-to-point and every
    collective's exchange round), ``dispatch`` (worker entry, before the
    SPMD function runs), and the resource-governor allocation gate
    ``arena`` (fired before the nth shm allocation, process backend
    only).
``nth``
    1-based hit count at which the clause fires: the clause triggers on
    the ``nth``-th time the matching rank reaches the matching site
    (default 1).  Hits are counted per concrete site name.
``kind``
    ``crash`` (SIGKILL the rank process; raises
    :class:`~repro.mpi.errors.FaultInjectedError` on the thread
    backend), ``exception`` (raise ``FaultInjectedError``), ``delay``
    (sleep ``delay`` seconds, then continue), ``enospc`` (raise a
    resource-exhaustion ``OSError`` — at the ``arena`` allocation gate
    this exercises the degradation-to-pickle path), or
    ``stall`` (hold the rank at the site: sleep in small increments
    checking the run deadline so a ``REPRO_DEADLINE`` run raises
    :class:`~repro.mpi.errors.DeadlineExceededError`; without a
    deadline, behaves like ``delay``).
``p``
    Probability in ``[0, 1]`` that the clause fires when it matches
    (default 1.0).  The draw is a deterministic hash of
    ``(seed, rank, site, hit)`` — the same spec always fires at the
    same places.
``seed``
    Seed folded into the probability hash (default 0).
``delay``
    Sleep duration in seconds for ``kind=delay`` (default 0.05).
``attempt``
    1-based launch attempt the clause applies to, or ``*`` for every
    attempt (default 1 — so a :class:`~repro.faults.RetryPolicy` retry
    is not re-injured by default).

This module is import-pure: it only touches the standard library at
module level so ``repro.mpi`` internals can import it without cycles.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.config import default_for

FAULTS_ENV_VAR = "REPRO_FAULTS"

_KINDS = ("crash", "exception", "delay", "enospc", "stall")
_WILDCARD = "*"


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec."""

    kind: str
    rank: int | None = None  # None = any rank
    site: str | None = None  # None = any site
    nth: int = 1
    p: float = 1.0
    seed: int = 0
    delay: float = 0.05
    attempt: int | None = 1  # None = any attempt

    def __str__(self) -> str:
        parts = [
            f"rank={self.rank if self.rank is not None else _WILDCARD}",
            f"site={self.site if self.site is not None else _WILDCARD}",
            f"nth={self.nth}",
            f"kind={self.kind}",
        ]
        if self.p != 1.0:
            parts.append(f"p={self.p}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        if self.kind == "delay":
            parts.append(f"delay={self.delay}")
        if self.attempt != 1:
            att = self.attempt if self.attempt is not None else _WILDCARD
            parts.append(f"attempt={att}")
        return ":".join(parts)

    def matches_rank(self, rank: int) -> bool:
        return self.rank is None or self.rank == rank

    def matches_attempt(self, attempt: int) -> bool:
        return self.attempt is None or self.attempt == attempt

    def matches_site(self, site: str) -> bool:
        return self.site is None or self.site == site

    def chance(self, rank: int, site: str, hit: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for a (rank, site, hit)."""
        key = f"{self.seed}|{rank}|{site}|{hit}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        (word,) = struct.unpack("<Q", digest)
        return word / 2.0**64


class FaultSpec:
    """A parsed ``REPRO_FAULTS`` spec: an ordered list of clauses."""

    def __init__(self, clauses: list[FaultClause]):
        self.clauses = list(clauses)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.clauses)

    def __repr__(self) -> str:
        return f"FaultSpec({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSpec) and self.clauses == other.clauses

    def clauses_for(self, rank: int, attempt: int) -> list[FaultClause]:
        return [
            c
            for c in self.clauses
            if c.matches_rank(rank) and c.matches_attempt(attempt)
        ]

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        clauses = []
        for raw in text.replace(";", ",").split(","):
            raw = raw.strip()
            if not raw:
                continue
            clauses.append(_parse_clause(raw))
        if not clauses:
            raise ValueError(f"empty fault spec: {text!r}")
        return cls(clauses)


def _parse_clause(raw: str) -> FaultClause:
    fields: dict[str, str] = {}
    for part in raw.split(":"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ValueError(
                f"bad fault field {part!r} in clause {raw!r}: expected key=value"
            )
        if key not in ("rank", "site", "nth", "kind", "p", "seed", "delay", "attempt"):
            raise ValueError(f"unknown fault field {key!r} in clause {raw!r}")
        if key in fields:
            raise ValueError(f"duplicate fault field {key!r} in clause {raw!r}")
        fields[key] = value

    kind = fields.get("kind")
    if kind is None:
        raise ValueError(f"fault clause {raw!r} is missing kind=")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} in clause {raw!r}; expected one of {_KINDS}"
        )

    rank = _parse_wild_int(fields.get("rank", _WILDCARD), "rank", raw, minimum=0)
    attempt = _parse_wild_int(fields.get("attempt", "1"), "attempt", raw, minimum=1)
    site = fields.get("site", _WILDCARD)
    site_val = None if site == _WILDCARD else site

    nth = _parse_int(fields.get("nth", "1"), "nth", raw)
    if nth < 1:
        raise ValueError(f"nth must be >= 1 in clause {raw!r}")
    seed = _parse_int(fields.get("seed", "0"), "seed", raw)
    p = _parse_float(fields.get("p", "1.0"), "p", raw)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1] in clause {raw!r}")
    delay = _parse_float(fields.get("delay", "0.05"), "delay", raw)
    if delay < 0:
        raise ValueError(f"delay must be >= 0 in clause {raw!r}")

    return FaultClause(
        kind=kind,
        rank=rank,
        site=site_val,
        nth=nth,
        p=p,
        seed=seed,
        delay=delay,
        attempt=attempt,
    )


def _parse_wild_int(
    value: str, name: str, raw: str, minimum: int
) -> int | None:
    if value == _WILDCARD:
        return None
    out = _parse_int(value, name, raw)
    if out < minimum:
        raise ValueError(f"{name} must be >= {minimum} in clause {raw!r}")
    return out


def _parse_int(value: str, name: str, raw: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"bad integer {value!r} for {name} in clause {raw!r}"
        ) from None


def _parse_float(value: str, name: str, raw: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"bad number {value!r} for {name} in clause {raw!r}"
        ) from None


def resolve_faults(override: "FaultSpec | str | None" = None) -> "FaultSpec | None":
    """Resolve the effective fault spec: explicit override, else the run's
    resolved config (``REPRO_FAULTS`` outside a run), else None."""
    if override is None:
        raw = str(default_for("faults")).strip()
        return FaultSpec.parse(raw) if raw else None
    if isinstance(override, FaultSpec):
        return override
    if isinstance(override, str):
        raw = override.strip()
        return FaultSpec.parse(raw) if raw else None
    raise TypeError(
        f"faults must be a FaultSpec, spec string, or None, got {type(override).__name__}"
    )
