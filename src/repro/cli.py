"""Command-line interface: compress, inspect, reconstruct, extract.

The end-to-end workflow of the paper as a shell tool::

    repro-tucker compress field.npy field.tucker.npz --tol 1e-3
    repro-tucker info field.tucker.npz
    repro-tucker reconstruct field.tucker.npz back.npy
    repro-tucker extract field.tucker.npz slab.npy --select : : 3 0:10

``compress`` accepts a dense tensor in ``.npy`` format, optionally applies
the paper's per-species normalization, runs ST-HOSVD (optionally refined by
HOOI), and writes a Tucker container.  ``extract`` reconstructs only the
selected subtensor (paper Sec. II-C) — the full tensor is never formed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.core import hooi, sthosvd
from repro.data.preprocess import center_and_scale
from repro.distributed.dist_tensor import read_npy_header
from repro.io import load_tucker, save_tucker, stored_bytes
from repro.mpi.errors import SpmdError
from repro.util.validation import check_axis, prod


def _backend_choices() -> tuple[str, ...]:
    from repro.mpi import available_backends

    return available_backends()


def _parse_selection(token: str, dim: int):
    """Parse one ``--select`` token: ``:``, ``i``, or ``a:b[:c]``."""
    token = token.strip()
    if token == ":":
        return None
    if ":" in token:
        parts = token.split(":")
        if len(parts) > 3:
            raise ValueError(f"bad slice {token!r}")
        vals = [int(p) if p else None for p in parts]
        while len(vals) < 3:
            vals.append(None)
        return slice(vals[0], vals[1], vals[2])
    idx = int(token)
    if not -dim <= idx < dim:
        raise ValueError(f"index {idx} out of range for mode of size {dim}")
    return idx


def _input_header(path: str, species_mode: int | None):
    """``(shape, dtype, species mode)`` of the ``.npy`` tensor at ``path``.

    Only the header is read, by the parser the ranks' ``from_npy`` uses.
    Raises ``ValueError`` unless the file is a single real numeric array
    with at least one mode and ``species_mode`` names one of them.
    """
    header = read_npy_header(path)
    ndim = len(header.shape)
    if header.dtype.kind not in "iuf" or ndim < 1:
        raise ValueError(
            f"{path} must hold a dense numeric tensor, got dtype "
            f"{header.dtype} with {ndim} modes"
        )
    if species_mode is not None:
        species_mode = check_axis(species_mode, ndim, "--species-mode")
    return header.shape, header.dtype, species_mode


def _scale_metadata(info) -> dict:
    return {
        "species_mode": info.mode,
        "means": info.means.tolist(),
        "stds": info.stds.tolist(),
    }


def _compress_prog(
    comm, src, dst, grid, species_mode, tol, ranks, method, dtype, metadata
):
    """SPMD program behind ``compress --parallel``.

    Every rank reads and normalizes only its own block of the file at
    ``src``; rank 0 alone receives the model, writes it to ``dst`` and
    returns ``(ranks, compression ratio, error estimate, mode order)``.
    Both paths are absolute: a warm pool worker keeps the cwd it was
    forked with.  Module-level (not a closure) so the process backend can
    pickle it by reference and dispatch repeated compressions to its warm
    rank pool.
    """
    from repro.data.preprocess import dist_center_and_scale
    from repro.distributed import DistTensor, dist_sthosvd
    from repro.mpi import CartGrid
    from repro.resources import check_deadline

    check_deadline("input read")
    dt = DistTensor.from_npy(CartGrid(comm, grid), src)
    if species_mode is not None:
        info = dist_center_and_scale(dt, species_mode)
        metadata = {**metadata, "normalized": _scale_metadata(info)}
    t = dist_sthosvd(dt, tol=tol, ranks=ranks, method=method, compute_dtype=dtype)
    model = t.to_tucker(root=0)  # collective: every rank participates
    if model is None:
        return None
    check_deadline("model save")
    metadata = {**metadata, "mode_order": list(t.mode_order)}
    save_tucker(dst, model, metadata=metadata)
    return model.ranks, model.compression_ratio, t.error_estimate(), t.mode_order


def _compress_parallel(
    args: argparse.Namespace, shape, species_mode, metadata: dict
):
    """Run the distributed ST-HOSVD on ``--parallel`` simulated ranks.

    The parent ships paths and scalars only — no rank ever receives more
    of the tensor than its own block.  Returns what rank 0 returned;
    factors are bit-identical across backends, so the container does not
    depend on the choice.  The compute dtype is resolved here, once, so
    the container records the one the ranks ran with.  ``--method svd``
    loads its LAPACK QR pair here too, so forked ranks inherit it and
    none imports SciPy inside a collective.
    """
    from repro.core.precision import resolve_compute_dtype
    from repro.distributed import choose_grid
    from repro.mpi import resolve_backend, run_spmd
    from repro.tensor.qr import lapack_qr

    if args.method == "svd":
        lapack_qr()

    ranks = tuple(args.ranks) if args.ranks else None
    grid = choose_grid(args.parallel, shape, ranks=ranks)

    backend = resolve_backend(args.backend)
    dtype = resolve_compute_dtype(args.dtype)
    metadata["parallel"] = {
        "ranks": args.parallel,
        "grid": list(grid),
        "backend": backend.name,
        "compute_dtype": dtype,
    }
    res = run_spmd(
        args.parallel,
        _compress_prog,
        os.path.abspath(args.input),
        os.path.abspath(args.output),
        grid,
        species_mode,
        args.tol,
        ranks,
        args.method,
        dtype,
        metadata,
        backend=backend,
        sanitize=args.sanitize,
        timeout=args.timeout,
    )
    print(
        f"  parallel     : {args.parallel} ranks, grid "
        f"{'x'.join(map(str, grid))}, {backend.name} backend, "
        f"modeled time {res.modeled_time:.3e} s"
    )
    return res[0]


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.parallel < 0:
        print("error: --parallel must be >= 0", file=sys.stderr)
        return 2
    if args.parallel and args.hooi_iterations > 0:
        print(
            "error: --hooi-iterations is not supported with --parallel",
            file=sys.stderr,
        )
        return 2
    if args.backend is not None and not args.parallel:
        print(
            "error: --backend requires --parallel (sequential compression "
            "never launches SPMD ranks)",
            file=sys.stderr,
        )
        return 2
    if args.sanitize is not None and not args.parallel:
        print(
            "error: --sanitize requires --parallel (the SPMD sanitizer "
            "checks rank protocols)",
            file=sys.stderr,
        )
        return 2
    if args.timeout is not None and not args.parallel:
        print(
            "error: --timeout requires --parallel (the deadlock timeout "
            "guards SPMD receives)",
            file=sys.stderr,
        )
        return 2
    if args.timeout is not None and not args.timeout > 0:  # NaN too
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    if args.tol is not None and not args.tol > 0:  # NaN too
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    if args.dtype is not None and not args.parallel:
        print(
            "error: --dtype requires --parallel (precision selection lives "
            "in the distributed drivers)",
            file=sys.stderr,
        )
        return 2
    shape, dtype, species_mode = _input_header(args.input, args.species_mode)
    metadata: dict = {"source": args.input, "tol": args.tol,
                      "method": args.method}
    if args.parallel:
        model_ranks, ratio, error_estimate, mode_order = _compress_parallel(
            args, shape, species_mode, metadata
        )
    else:
        x = np.load(args.input)
        if species_mode is not None:
            x, info = center_and_scale(x, species_mode)
            metadata["normalized"] = _scale_metadata(info)
        ranks = tuple(args.ranks) if args.ranks else None
        result = sthosvd(x, tol=args.tol, ranks=ranks, method=args.method)
        error_estimate = result.error_estimate()
        mode_order = result.mode_order
        metadata["mode_order"] = list(mode_order)
        if args.hooi_iterations > 0:
            refined = hooi(x, init=result, max_iterations=args.hooi_iterations)
            decomposition = refined.decomposition
        else:
            decomposition = result.decomposition
        save_tucker(args.output, decomposition, metadata=metadata)
        model_ranks = decomposition.ranks
        ratio = decomposition.compression_ratio
    raw = prod(shape) * dtype.itemsize
    disk = stored_bytes(args.output)
    print(
        f"compressed {args.input} {shape} -> {args.output}\n"
        f"  ranks        : {model_ranks}\n"
        f"  mode order   : {tuple(mode_order)}\n"
        f"  ratio        : {ratio:.1f}x in memory, "
        f"{raw / disk:.1f}x on disk\n"
        f"  error (est.) : {error_estimate:.3e}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    t, meta = load_tucker(args.model)
    print(
        f"{args.model}\n"
        f"  shape       : {t.shape}\n"
        f"  ranks       : {t.ranks}\n"
        f"  compression : {t.compression_ratio:.1f}x "
        f"({prod(t.shape)} -> {t.storage_words} words)\n"
        f"  metadata    : {json.dumps(meta)}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.diagnostics import validate_tucker
    from repro.core.precision import FLOAT32_NOISE_FLOOR

    t, meta = load_tucker(args.model)
    x = np.load(args.against) if args.against else None
    # A model computed under a narrowed dtype (compress --dtype
    # float32/mixed, recorded in the container metadata) legitimately
    # carries float32-level orthonormality defect in its factors; hold
    # it to the float32 bar instead of failing it against float64's.
    dtype = (meta.get("parallel") or {}).get("compute_dtype", "float64")
    atol = 1e-8 if dtype == "float64" else float(FLOAT32_NOISE_FLOOR)
    report = validate_tucker(t, x, atol=atol)
    print(f"{args.model}: {'OK' if report.ok else 'ISSUES FOUND'}")
    if dtype != "float64":
        print(f"  dtype bar          : {dtype} (atol {atol:.1e})")
    print(f"  orthonormality dev : "
          f"{max(report.orthonormality_errors):.2e} (worst mode)")
    print(f"  norm identity gap  : {report.norm_identity_gap:.2e}")
    if report.core_residual is not None:
        print(f"  core residual      : {report.core_residual:.2e}")
        print(f"  relative error     : {report.relative_error:.2e}")
    for issue in report.issues:
        print(f"  ! {issue}")
    return 0 if report.ok else 1


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    t, _ = load_tucker(args.model)
    np.save(args.output, t.reconstruct())
    print(f"reconstructed {t.shape} tensor -> {args.output}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    t, _ = load_tucker(args.model)
    if len(args.select) != t.order:
        print(
            f"error: need {t.order} --select tokens (one per mode), got "
            f"{len(args.select)}",
            file=sys.stderr,
        )
        return 2
    try:
        spec = [
            _parse_selection(token, dim)
            for token, dim in zip(args.select, t.shape)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sub = t.reconstruct_subtensor(spec)
    np.save(args.output, sub)
    print(f"extracted subtensor {sub.shape} -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tucker",
        description="Tucker compression of dense scientific tensors "
        "(reproduction of Austin, Ballard & Kolda, IPDPS 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a .npy tensor")
    p.add_argument("input", help="dense tensor in .npy format")
    p.add_argument("output", help="output Tucker container (.npz)")
    p.add_argument("--tol", type=float, default=None,
                   help="relative error tolerance (exclusive with --ranks)")
    p.add_argument("--ranks", type=int, nargs="+", default=None,
                   help="explicit reduced dimensions per mode")
    p.add_argument("--method", choices=("gram", "svd"), default="gram",
                   help="factor computation (svd: robust at tiny tol)")
    p.add_argument("--species-mode", type=int, default=None,
                   help="center-and-scale slices of this mode first")
    p.add_argument("--hooi-iterations", type=int, default=0,
                   help="refine with up to this many HOOI iterations")
    p.add_argument("--parallel", type=int, default=0, metavar="P",
                   help="run the distributed ST-HOSVD on P simulated ranks "
                        "(0: sequential)")
    p.add_argument("--backend", choices=_backend_choices(), default=None,
                   help="SPMD executor backend for --parallel (default: "
                        "$REPRO_SPMD_BACKEND or 'thread')")
    p.add_argument("--sanitize", type=int, choices=(0, 1), default=None,
                   help="SPMD sanitizer level for --parallel runs: 1 checks "
                        "collective matching and request lifetimes (default: "
                        "the REPRO_SANITIZE environment variable)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="deadlock-detection timeout for --parallel runs "
                        "(default: $REPRO_SPMD_TIMEOUT or 120)")
    p.add_argument("--dtype", choices=("float64", "float32", "mixed"),
                   default=None,
                   help="compute precision for --parallel runs: float32 "
                        "kernels, mixed (float32 kernels + one float64 "
                        "refinement sweep under the error budget), or full "
                        "float64 (default: $REPRO_DTYPE)")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("info", help="describe a Tucker container")
    p.add_argument("model")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser(
        "validate", help="check a container's structural guarantees"
    )
    p.add_argument("model")
    p.add_argument("--against", default=None,
                   help="original tensor (.npy) for error/core checks")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reconstruct", help="write the full reconstruction")
    p.add_argument("model")
    p.add_argument("output", help="output .npy path")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser(
        "extract", help="reconstruct only a subtensor (never forms the rest)"
    )
    p.add_argument("model")
    p.add_argument("output", help="output .npy path")
    p.add_argument(
        "--select",
        nargs="+",
        required=True,
        help="one token per mode: ':' (all), an index, or a:b[:c] slice",
    )
    p.set_defaults(fn=_cmd_extract)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compress" and (args.tol is None) == (args.ranks is None):
        print("error: specify exactly one of --tol / --ranks", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except OSError as exc:
        # Missing input, unwritable output directory, full disk.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad parameter combinations surfaced by the library (unknown
        # REPRO_SPMD_BACKEND, infeasible grid, rank > dimension...).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpmdError as exc:
        # A parallel run failed — dead rank, injected fault, mismatched
        # collectives, deadlock; the per-rank diagnoses ride the message.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
