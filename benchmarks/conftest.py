"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints a
paper-vs-measured comparison.  Absolute numbers come from proxies and the
calibrated machine model (see DESIGN.md's substitution table); the *shapes*
— orderings, ratios, crossovers — are the reproduced claims, and each
benchmark asserts them.
"""

from __future__ import annotations

import pytest

from repro.data import center_and_scale, load_dataset


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record", action="store_true",
        help="write the measured rows to BENCH_*.json at the repo root "
             "(off by default: a plain test run leaves the tree clean)",
    )


@pytest.fixture(autouse=True)
def bench_recording(request):
    """Tell the perf modules (their ``_record``) whether to write."""
    if hasattr(request.module, "BENCH_RECORD"):
        request.module.BENCH_RECORD = request.config.getoption(
            "--bench-record", default=False
        )


def table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print a fixed-width comparison table (captured with pytest -s)."""
    print()
    print("=" * max(len(title), 8 + 14 * len(headers)))
    print(title)
    print("=" * max(len(title), 8 + 14 * len(headers)))
    print("".join(f"{h:>14s}" for h in headers))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:>14.4g}")
            else:
                cells.append(f"{str(value):>14s}")
        print("".join(cells))


@pytest.fixture(scope="session")
def datasets():
    """The three combustion proxies, normalized, built once per session."""
    out = {}
    for name in ("HCCI", "TJLR", "SP"):
        ds = load_dataset(name)
        x, _ = center_and_scale(ds.tensor, ds.species_mode)
        out[name] = (ds, x)
    return out
