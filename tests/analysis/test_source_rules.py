"""Source rules the runtime cannot check: scans of ``src/repro``.

* Every ``REPRO_*`` knob is read in :mod:`repro.config` only, so it is
  resolved once at the ``run_spmd`` boundary and reaches pooled workers
  with the run's config.
* Shared memory is created at one site, ``Segment.create`` in the
  transport, which names the segment for the crash sweep.  Only the
  transport (through ``create_segment``, which charges the resource
  governor) and the rank status board call it.
* Nothing uses ``multiprocessing.shared_memory`` or its resource
  tracker: the runtime owns and unlinks its segments itself, and no
  helper process runs beside the ranks.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ENV_READ = re.compile(
    r"(?:environ\s*\[|environ\.get\(|getenv\()\s*(?:[\"']REPRO_|[\w.]*_ENV_VAR\b)"
)
SHM_OPEN_CREATE = re.compile(r"shm_open\([^)]*O_CREAT")
SHM_CREATE = re.compile(r"Segment\.create\(|create_segment\(")
STDLIB_SHM = re.compile(r"\bshared_memory\b|\bresource_tracker\b")


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
    assert [
        hit.split(":")[0] for hit in _hits(SHM_OPEN_CREATE, ())
    ] == ["repro/mpi/process_transport.py"]
    assert _hits(
        SHM_CREATE, ("repro/mpi/process_transport.py", "repro/mpi/status.py")
    ) == []
    assert _hits(STDLIB_SHM, ()) == []


@pytest.mark.parametrize(
    "pattern, line, caught",
    [
        (ENV_READ, 'os.environ["REPRO_SPMD_BACKEND"]', True),
        (ENV_READ, 'os.environ.get("REPRO_SANITIZE", "0")', True),
        (ENV_READ, "os.getenv('REPRO_FAULTS')", True),
        (ENV_READ, "os.environ.get(config.OVERLAP_ENV_VAR, '1')", True),
        (ENV_READ, 'os.environ.get("HOME", "/")', False),
        (SHM_OPEN_CREATE, 'shm_open("/" + name, os.O_CREAT | os.O_RDWR)', True),
        (SHM_OPEN_CREATE, 'shm_open(\n    "/" + name,\n    os.O_CREAT,\n)', True),
        (SHM_OPEN_CREATE, 'shm_open("/" + name, os.O_RDONLY, mode=0)', False),
        (SHM_CREATE, "shm = Segment.create(nbytes)", True),
        (SHM_CREATE, "return create_segment(nbytes)", True),
        (SHM_CREATE, "Segment(obj.name)", False),
        (STDLIB_SHM, "from multiprocessing import shared_memory", True),
        (STDLIB_SHM, "multiprocessing.shared_memory.SharedMemory(name=n)", True),
        (STDLIB_SHM, "from multiprocessing import resource_tracker", True),
        (STDLIB_SHM, "resource_tracker.ensure_running()", True),
        (STDLIB_SHM, "no shared-memory handle", False),
    ],
)
def test_patterns(pattern, line, caught):
    assert bool(pattern.search(line)) is caught
