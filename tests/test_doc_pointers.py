"""Every Markdown file and every ``repro`` name the code sends a reader to
exists.

A docstring, comment or message under ``src/``, ``examples/``, ``tests/``
or ``benchmarks/`` that names a ``*.md`` file must name one that is in
the repository: a bare name is a repo-root file, and a name with
directories in front (``benchmarks/RECORDED.md``) is that path from the
root.

A dotted ``repro.a.b`` name in ``README.md``, ``src/`` or ``examples/``
must import, or resolve as attributes of the longest prefix that does
(``repro.tensor.qr.lapack_qr``, ``repro.core.sthosvd.SthosvdResult``).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from tests.conftest import resolve_dotted

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "tests", "benchmarks")

MD_NAME = re.compile(r"(?<![\w./-])(?:[\w-]+/)*[\w-]+\.md\b")


def _pointers() -> list[tuple[str, str]]:
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text()
            except UnicodeDecodeError:
                continue
            for match in MD_NAME.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                where = f"{path.relative_to(ROOT).as_posix()}:{line}"
                found.append((where, match.group(0)))
    return found


def test_every_named_markdown_file_exists():
    missing = [
        f"{where}: {name}" for where, name in _pointers()
        if not (ROOT / name).is_file()
    ]
    assert missing == []


def test_the_scan_sees_the_pointers_it_checks():
    names = {name for _, name in _pointers()}
    assert {"README.md", "benchmarks/RECORDED.md"} <= names


@pytest.mark.parametrize(
    "line, names",
    [
        ("see README.md's Layout", ["README.md"]),
        ("see benchmarks/RECORDED.md", ["benchmarks/RECORDED.md"]),
        # Spelled in two pieces, so that this file names no missing file.
        ("(see NOTES" ".md)", ["NOTES" ".md"]),
        ("/tmp/x.md and a.mdx and self.md_path", []),
    ],
)
def test_pattern(line, names):
    assert MD_NAME.findall(line) == names


DOTTED_SCANNED = ("README.md", "src", "examples")

DOTTED_NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _dotted_names() -> list[tuple[str, str]]:
    found = []
    for top in DOTTED_SCANNED:
        root = ROOT / top
        paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in paths:
            text = path.read_text()
            for match in DOTTED_NAME.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                where = f"{path.relative_to(ROOT).as_posix()}:{line}"
                found.append((where, match.group(0)))
    return found


def _resolves(dotted: str) -> bool:
    try:
        resolve_dotted(dotted)
    except AttributeError:
        return False
    return True


def test_every_dotted_repro_name_resolves():
    names = _dotted_names()
    assert len(names) > 300  # the scan sees the code's own pointers
    stale = [f"{where}: {name}" for where, name in names if not _resolves(name)]
    assert stale == []


def test_dotted_name_pattern_and_resolution():
    line = "see repro.tensor.qr.lapack_qr() and repro.mpi, not my.repro.x"
    assert DOTTED_NAME.findall(line) == ["repro.tensor.qr.lapack_qr", "repro.mpi"]
    assert DOTTED_NAME.findall("repro-tucker and `repro`.") == []
    assert _resolves("repro.core.sthosvd.SthosvdResult.error_estimate")
    assert not _resolves("repro.baselines")
    assert not _resolves("repro.tensor.leading_eigenvectors")
