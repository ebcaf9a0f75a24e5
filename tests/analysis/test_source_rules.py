"""Source rules the runtime cannot check: scans of ``src/repro``.

* Every ``REPRO_*`` knob is read in :mod:`repro.config` only, so it is
  resolved once at the ``run_spmd`` boundary and reaches pooled workers
  with the run's config.
* Shared memory is created in the transport (``create_segment``, which
  fires the ``arena`` fault site and names the segment for the crash
  sweep) and in the fault status board only.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ENV_READ = re.compile(
    r"(?:environ\s*\[|environ\.get\(|getenv\()\s*(?:[\"']REPRO_|[\w.]*_ENV_VAR\b)"
)
SHM_CREATE = re.compile(r"SharedMemory\([^)]*create=True|create_segment\(")


def _hits(pattern: re.Pattern, exempt: tuple[str, ...]) -> list[str]:
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        if rel.startswith(exempt):
            continue
        text = path.read_text()
        for match in pattern.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            hits.append(f"{rel}:{line}: {match.group(0)}")
    return hits


def test_repro_env_vars_are_read_in_config_only():
    assert _hits(ENV_READ, ("repro/config/",)) == []


def test_shared_memory_is_created_in_the_transport_only():
    assert _hits(
        SHM_CREATE, ("repro/mpi/process_transport.py", "repro/faults/status.py")
    ) == []


@pytest.mark.parametrize(
    "pattern, line, caught",
    [
        (ENV_READ, 'os.environ["REPRO_SPMD_BACKEND"]', True),
        (ENV_READ, 'os.environ.get("REPRO_SANITIZE", "0")', True),
        (ENV_READ, "os.getenv('REPRO_FAULTS')", True),
        (ENV_READ, "os.environ.get(config.OVERLAP_ENV_VAR, '1')", True),
        (ENV_READ, 'os.environ.get("HOME", "/")', False),
        (SHM_CREATE, "shared_memory.SharedMemory(create=True, size=n)", True),
        (SHM_CREATE, "SharedMemory(name=name, create=True, size=64)", True),
        (SHM_CREATE, "return create_segment(nbytes)", True),
        (SHM_CREATE, "shared_memory.SharedMemory(name=name)", False),
    ],
)
def test_patterns(pattern, line, caught):
    assert bool(pattern.search(line)) is caught
