"""Every Markdown file the code sends a reader to exists.

A docstring, comment or message under ``src/``, ``examples/``, ``tests/``
or ``benchmarks/`` that names a ``*.md`` file must name one that is in
the repository: a bare name is a repo-root file, and a name with
directories in front (``benchmarks/RECORDED.md``) is that path from the
root.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

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
