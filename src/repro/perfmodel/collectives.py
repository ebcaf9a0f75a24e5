"""Closed-form collective communication costs (paper Table I).

All formulas take the communicator size ``p``, the message size ``w`` in
words (8-byte doubles), and a :class:`~repro.perfmodel.machine.MachineSpec`.
They return modeled seconds charged to *every* participant (the model is
bulk-synchronous: a collective completes simultaneously on all members).

Table I of the paper:

====================  =====================================================
Send/Receive          ``alpha + beta * W``
All-gather            ``alpha * log P + beta * (P-1)/P * W``
Reduce                ``alpha * log P + (beta + gamma) * (P-1)/P * W``
All-reduce            ``2 alpha * log P + (2 beta + gamma) * (P-1)/P * W``
====================  =====================================================

where ``W`` is the total data size.  Following the paper's analysis the
``gamma`` terms of the reductions are dropped unless the machine spec sets
``charge_reduce_flops=True``.  Reduce-scatter and broadcast are not listed
in Table I but are needed by the non-blocked TTM fast path; we use the
standard costs from Chan et al. / Thakur et al. (the paper's refs [4], [20]).
"""

from __future__ import annotations

import math

from repro.perfmodel.machine import MachineSpec


def _log2(p: int) -> float:
    """log2(p) used for tree-based collectives; log2(1) == 0."""
    if p < 1:
        raise ValueError(f"communicator size must be >= 1, got {p}")
    return math.log2(p)


def _check_words(w: float) -> float:
    if w < 0:
        raise ValueError(f"message size must be non-negative, got {w}")
    return float(w)


def send_recv_cost(w: float, machine: MachineSpec) -> float:
    """Point-to-point: ``alpha + beta * W`` (Table I row 1)."""
    w = _check_words(w)
    return machine.alpha + machine.beta * w


def allgather_cost(p: int, w: float, machine: MachineSpec) -> float:
    """All-gather of total size ``w``: ``alpha log P + beta (P-1)/P W``."""
    w = _check_words(w)
    if p == 1:
        return 0.0
    return machine.alpha * _log2(p) + machine.beta * (p - 1) / p * w


def reduce_cost(p: int, w: float, machine: MachineSpec) -> float:
    """Reduce of total size ``w``: ``alpha log P + (beta [+ gamma]) (P-1)/P W``."""
    w = _check_words(w)
    if p == 1:
        return 0.0
    per_word = machine.beta + (machine.gamma if machine.charge_reduce_flops else 0.0)
    return machine.alpha * _log2(p) + per_word * (p - 1) / p * w


def allreduce_cost(p: int, w: float, machine: MachineSpec) -> float:
    """All-reduce: ``2 alpha log P + (2 beta [+ gamma]) (P-1)/P W``."""
    w = _check_words(w)
    if p == 1:
        return 0.0
    per_word = 2 * machine.beta + (
        machine.gamma if machine.charge_reduce_flops else 0.0
    )
    return 2 * machine.alpha * _log2(p) + per_word * (p - 1) / p * w


def reduce_scatter_cost(p: int, w: float, machine: MachineSpec) -> float:
    """Reduce-scatter: ``alpha log P + (beta [+ gamma]) (P-1)/P W``.

    Same asymptotic cost as reduce (ref [20]); the result is scattered so no
    extra bandwidth is charged for redistribution.
    """
    return reduce_cost(p, w, machine)


def bcast_cost(p: int, w: float, machine: MachineSpec) -> float:
    """Broadcast: ``alpha log P + beta (P-1)/P W`` (scatter + all-gather)."""
    w = _check_words(w)
    if p == 1:
        return 0.0
    return machine.alpha * _log2(p) + machine.beta * (p - 1) / p * w


def alltoall_cost(p: int, w: float, machine: MachineSpec) -> float:
    """Pairwise all-to-all with heaviest row ``w``: ``(P-1) (alpha + beta ceil(W/P))``."""
    w = _check_words(w)
    if p == 1:
        return 0.0
    return (p - 1) * send_recv_cost(-(-w // p), machine)
