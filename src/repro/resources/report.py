"""Per-run resource accounting results: degradation events and totals.

Everything here is plain data.  Rank-side summaries are small picklable
dicts produced by :meth:`repro.resources.governor.ResourceGovernor.summary`
and ride the existing worker→parent report channel; the parent folds them
into one :class:`ResourceReport` surfaced on ``SpmdResult.resources``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class DegradationEvent:
    """One allocation that fell back from shared memory to pickle.

    ``site`` names the allocation purpose (``"arena"``), ``kind`` the
    fallback route taken (``"pickle"``), ``nbytes`` the allocation that
    was refused, and ``detail`` the cause (``ENOSPC``/``ENOMEM``).
    """

    rank: int
    site: str
    kind: str
    nbytes: int
    detail: str = ""

    def render(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"rank {self.rank}: {self.site} allocation of {self.nbytes} B "
            f"degraded [{self.kind}]{extra}"
        )


@dataclass
class ResourceReport:
    """Resource-governance outcome of one ``run_spmd`` call.

    ``degradations`` lists every shared-memory allocation that fell back
    to the pickle path (results are bit-identical either way — the
    report is how callers observe that the fast path was constrained).
    Byte totals aggregate the per-rank governors; ``peak_bytes`` sums
    each process's peak live bytes above where its run started.
    """

    degradations: list[DegradationEvent] = field(default_factory=list)
    #: live shm bytes still attributed to each rank at run end (arena
    #: free lists); keyed by world rank, -1 = parent.
    rank_live_bytes: dict[int, int] = field(default_factory=dict)
    peak_bytes: int = 0
    charged_bytes: int = 0
    released_bytes: int = 0

    @classmethod
    def from_rank_summaries(
        cls, summaries: dict[int, dict[str, Any] | None]
    ) -> "ResourceReport":
        """Fold per-rank governor summaries into one report."""
        report = cls()
        for rank, summary in sorted(summaries.items()):
            if not summary:
                continue
            for site, kind, nbytes, detail in summary.get("events", ()):
                report.degradations.append(
                    DegradationEvent(rank, site, kind, int(nbytes), detail)
                )
            report.rank_live_bytes[rank] = int(summary.get("live", 0))
            report.peak_bytes += int(summary.get("peak", 0))
            report.charged_bytes += int(summary.get("charged", 0))
            report.released_bytes += int(summary.get("released", 0))
        return report

    def describe(self) -> str:
        lines = [
            f"shm charged {self.charged_bytes} B / released "
            f"{self.released_bytes} B (peak ~{self.peak_bytes} B)"
        ]
        if not self.degradations:
            lines.append("no degradations: every allocation stayed on shm")
        for event in self.degradations:
            lines.append(event.render())
        return "\n".join(lines)
