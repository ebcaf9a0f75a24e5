"""No orphans in ``src/``: every definition has a caller outside the tests.

The guard parses ``src/repro`` with :mod:`ast` and lists every top-level
function and class and every method of a top-level class (dunders
excepted).  A definition is *called* when its name appears as an
``ast.Name`` or ``ast.Attribute`` somewhere in ``src/``, ``bench/`` or
``examples/`` outside its own body.  An ``__all__`` string or a
``from ... import`` re-export is not a call: a name that only the tests
reach is surface nothing in the program pays for.

The match is by bare name, so a method counts as called when any
attribute of that name is read anywhere; the guard finds what nothing
could be calling, not every dead path.  A definition kept on purpose
without a caller takes an :data:`ALLOWLIST` entry with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, NamedTuple

ROOT = Path(__file__).resolve().parents[2]
DEFINITION_ROOTS = (ROOT / "src",)
USE_ROOTS = (ROOT / "src", ROOT / "bench", ROOT / "examples")

#: ``module:qualname`` -> why it stays without a caller in the program.
ALLOWLIST = {
    "repro.mpi.comm:Communicator.reduce": (
        "Table I's Reduce, charged by benchmarks/test_table1_collectives.py "
        "(np.add.reduce shares its name, so the scan alone would pass it)"
    ),
    "repro.core.precision:float32_error_budget": (
        "README's float32 contract: the delivered-error bound the "
        "mixed-precision tests hold the drivers to"
    ),
    "repro.core.sthosvd:greedy_flops_order": (
        "Sec. VIII-C's flops-greedy mode order, charted by "
        "benchmarks/test_fig8b_mode_order.py"
    ),
    "repro.data.preprocess:invert_scaling": (
        "inverse of the paper's centering and scaling: back to physical units"
    ),
    "repro.distributed.dist_tensor:DistTensor.local_slices": (
        "a block's global index window, through which the distributed "
        "tests compare each block with the global tensor"
    ),
    "repro.distributed.tsqr:tsqr_r": (
        "TSQR of a plain distributed matrix: test_tsqr.py checks the R "
        "factor and flop charges of the tree dist_mode_svd runs"
    ),
    "repro.perfmodel.algorithms:sthosvd_memory_bound": (
        "Sec. VI's per-processor memory bound, eq. (2), which "
        "test_paper_claims.py checks the paper's 3x-data claim against"
    ),
    "repro.tensor.dense:fold": (
        "inverse of the mode-n unfolding: the tests' reference TTM is "
        "fold(V @ unfold(X))"
    ),
}


class Definition(NamedTuple):
    module: str
    qualname: str
    path: Path
    first: int
    last: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files(roots: Iterable[Path]) -> list[Path]:
    return sorted(p for root in roots for p in root.rglob("*.py"))


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(roots: Iterable[Path]) -> list[Definition]:
    """Top-level functions and classes, and the methods of those classes."""
    found = []
    for root in roots:
        for path in _python_files([root]):
            module = _module_name(path, root)
            for node in ast.parse(path.read_text()).body:
                if not isinstance(node, _DEFS) or _is_dunder(node.name):
                    continue
                found.append(
                    Definition(module, node.name, path, node.lineno, node.end_lineno)
                )
                if not isinstance(node, ast.ClassDef):
                    continue
                for item in node.body:
                    if isinstance(item, _DEFS) and not _is_dunder(item.name):
                        found.append(Definition(
                            module, f"{node.name}.{item.name}", path,
                            item.lineno, item.end_lineno,
                        ))
    return found


def uses(roots: Iterable[Path]) -> dict[str, list[tuple[Path, int]]]:
    """Every ``Name`` and ``Attribute`` read, by name: where it appears.

    A name imported under an alias (``from m import f as _f``) is used
    wherever its alias is.
    """
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path in _python_files(roots):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = aliases.get(node.id, node.id)
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            seen.setdefault(name, []).append((path, node.lineno))
    return seen


def orphans(
    def_roots: Iterable[Path] = DEFINITION_ROOTS,
    use_roots: Iterable[Path] = USE_ROOTS,
) -> list[str]:
    """Keys of the definitions nothing outside their own body names."""
    seen = uses(use_roots)
    return sorted(
        d.key
        for d in definitions(def_roots)
        if not any(
            not (path == d.path and d.first <= line <= d.last)
            for path, line in seen.get(d.name, ())
        )
    )


def test_src_has_no_orphans():
    found = [key for key in orphans() if key not in ALLOWLIST]
    assert not found, (
        "definitions without a caller in src/, bench/ or examples/ "
        f"(delete them, or allowlist them with a reason): {found}"
    )


def test_allowlist_names_live_definitions():
    """A deleted definition leaves the allowlist with it."""
    live = {d.key for d in definitions(DEFINITION_ROOTS)}
    assert sorted(set(ALLOWLIST) - live) == []
    assert len(ALLOWLIST) <= 12
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_planted_orphans_are_reported(tmp_path):
    """Of a called function, one called through an alias, one naming only
    itself and one only re-exported, the guard reports the last two."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from pkg.impl import exported_only\n__all__ = ['exported_only']\n"
    )
    (pkg / "impl.py").write_text(
        "def called():\n    return 1\n\n\n"
        "def aliased():\n    return 2\n\n\n"
        "def uncalled():\n    return uncalled\n\n\n"
        "def exported_only():\n    return 3\n"
    )
    (pkg / "user.py").write_text(
        "from pkg.impl import aliased as _aliased, called\n\n"
        "VALUE = called() + _aliased()\n"
    )
    src = tmp_path / "src"
    assert orphans([src], [src]) == ["pkg.impl:exported_only", "pkg.impl:uncalled"]
