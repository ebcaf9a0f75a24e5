"""Programmatic regeneration of every table and figure in the paper.

Each ``fig*_data`` / ``table*_data`` function returns plain dicts/lists
ready for tabulation or plotting, produced by the same library calls the
benchmark suite asserts on.  ``write_csv`` serializes any of them, and
``generate_all`` runs the whole evaluation (see
``examples/generate_paper_tables.py``).

The compression studies run on the synthetic proxies and the performance
studies on the calibrated machine model; the ``benchmarks/`` suite
asserts the claims those substitutions must preserve and prints the
paper-vs-measured comparison.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Callable, Sequence



from repro.core import hooi, max_abs_error, normalized_rms, sthosvd
from repro.core.errors import modewise_error_curves
from repro.data import (
    center_and_scale,
    fig8a_problem,
    fig8b_problem,
    load_dataset,
)
from repro.perfmodel import (
    EDISON_CALIBRATED,
    MachineSpec,
    grid_sweep,
    mode_order_sweep,
    strong_scaling_curve,
    weak_scaling_curve,
)

Row = dict[str, Any]


def _normalized(name: str, **kwargs):
    ds = load_dataset(name, **kwargs)
    x, _ = center_and_scale(ds.tensor, ds.species_mode)
    return ds, x


def fig1b_data(
    epsilons: Sequence[float] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2),
    method: str = "svd",
) -> list[Row]:
    """Fig. 1b: compression ratio vs error for the SP dataset."""
    _, x = _normalized("SP")
    rows = []
    for eps in epsilons:
        res = sthosvd(x, tol=eps, method=method)
        rows.append(
            {
                "eps": eps,
                "compression_ratio": res.decomposition.compression_ratio,
                "true_error": res.decomposition.relative_error(x),
                "ranks": res.ranks,
            }
        )
    return rows


def fig6_data(dataset: str = "HCCI") -> list[Row]:
    """Fig. 6: mode-wise normalized truncation error vs rank."""
    ds, x = _normalized(dataset)
    curves = modewise_error_curves(x)
    rows = []
    for mode, curve in enumerate(curves):
        for rank, err in enumerate(curve):
            rows.append(
                {"dataset": ds.name, "mode": mode, "rank": rank, "error": err}
            )
    return rows


def fig7_data(
    epsilons: Sequence[float] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2),
    method: str = "svd",
) -> list[Row]:
    """Fig. 7: compression vs error for all three datasets."""
    rows = []
    for name in ("HCCI", "TJLR", "SP"):
        _, x = _normalized(name)
        for eps in epsilons:
            res = sthosvd(x, tol=eps, method=method)
            rows.append(
                {
                    "dataset": name,
                    "eps": eps,
                    "compression_ratio": res.decomposition.compression_ratio,
                }
            )
    return rows


def table2_data(eps: float = 1e-3, hooi_iterations: int = 5) -> list[Row]:
    """Table II: ST-HOSVD vs HOOI errors and compression at ``eps``."""
    rows = []
    for name in ("HCCI", "TJLR", "SP"):
        ds, x = _normalized(name)
        st = sthosvd(x, tol=eps)
        ho = hooi(x, init=st, max_iterations=hooi_iterations)
        st_rec = st.decomposition.reconstruct()
        ho_rec = ho.decomposition.reconstruct()
        rows.append(
            {
                "dataset": name,
                "reduced_dims": st.ranks,
                "st_norm_rms": normalized_rms(x, st_rec),
                "st_max_abs": max_abs_error(x, st_rec),
                "hooi_norm_rms": normalized_rms(x, ho_rec),
                "hooi_max_abs": max_abs_error(x, ho_rec),
                "compression_ratio": st.decomposition.compression_ratio,
                "paper_compression": ds.paper_compression_eps1e3,
            }
        )
    return rows


def fig8a_data(machine: MachineSpec = EDISON_CALIBRATED) -> list[Row]:
    """Fig. 8a: per-kernel modeled runtime for the paper's eleven grids."""
    problem = fig8a_problem()
    points = grid_sweep(problem.shape, problem.ranks, problem.grids, machine)
    best = min(p.time for p in points)
    return [
        {
            "grid": p.label,
            "time": p.time,
            "relative_time": p.time / best,
            **{f"{k}_time": v for k, v in p.breakdown().items()},
        }
        for p in points
    ]


def fig8b_data(machine: MachineSpec = EDISON_CALIBRATED) -> list[Row]:
    """Fig. 8b: modeled runtime for every mode-processing order."""
    problem = fig8b_problem()
    points = mode_order_sweep(
        problem.shape, problem.ranks, problem.grids[0], machine
    )
    best = min(p.time for p in points)
    return [
        {
            "order": p.label,
            "time": p.time,
            "relative_time": p.time / best,
            **{f"{k}_time": v for k, v in p.breakdown().items()},
        }
        for p in sorted(points, key=lambda p: p.label)
    ]


def fig9a_data(machine: MachineSpec = EDISON_CALIBRATED) -> list[Row]:
    """Fig. 9a: modeled strong-scaling times, best grid per P."""
    procs = [24 * 2**k for k in range(10)]
    points = strong_scaling_curve((200,) * 4, (20,) * 4, procs, machine)
    return [
        {
            "nodes": p.n_procs // 24,
            "cores": p.n_procs,
            "grid": "x".join(map(str, p.grid)),
            "sthosvd_seconds": p.sthosvd_time,
            "hooi_seconds": p.hooi_time,
        }
        for p in points
    ]


def fig9b_data(machine: MachineSpec = EDISON_CALIBRATED) -> list[Row]:
    """Fig. 9b: modeled weak-scaling GFLOPS per core."""
    points = weak_scaling_curve(range(1, 7), machine)
    return [
        {
            "k": k,
            "cores": p.n_procs,
            "data_gb": (200 * k) ** 4 * 8 / 1e9,
            "grid": "x".join(map(str, p.grid)),
            "sthosvd_gflops_per_core": p.gflops_per_core("sthosvd"),
            "hooi_gflops_per_core": p.gflops_per_core("hooi"),
        }
        for k, p in enumerate(points, start=1)
    ]


#: Registry of every reproducible experiment, keyed by paper artifact.
EXPERIMENTS: dict[str, Callable[[], list[Row]]] = {
    "fig1b": fig1b_data,
    "fig6_hcci": lambda: fig6_data("HCCI"),
    "fig6_tjlr": lambda: fig6_data("TJLR"),
    "fig6_sp": lambda: fig6_data("SP"),
    "fig7": fig7_data,
    "table2": table2_data,
    "fig8a": fig8a_data,
    "fig8b": fig8b_data,
    "fig9a": fig9a_data,
    "fig9b": fig9b_data,
}


def write_csv(rows: list[Row], path: str | os.PathLike) -> None:
    """Write experiment rows to CSV (columns from the first row's keys)."""
    if not rows:
        raise ValueError("no rows to write")
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def generate_all(out_dir: str | os.PathLike) -> dict[str, str]:
    """Run every experiment and write one CSV per paper artifact.

    Returns a mapping of experiment id to output path.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    for name, fn in EXPERIMENTS.items():
        path = os.path.join(os.fspath(out_dir), f"{name}.csv")
        write_csv(fn(), path)
        written[name] = path
    return written
